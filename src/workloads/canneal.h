/**
 * @file
 * Canneal (PARSEC): cache-aware simulated annealing of chip routing
 * (Table 1: 382 GB MS / 32 GB WM; the paper's best multi-socket case at
 * 1.34x). Each step picks two random netlist elements, reads both and a
 * few of their neighbours, and swaps them — uniformly random traffic
 * over a huge element array.
 */

#ifndef MITOSIM_WORKLOADS_CANNEAL_H
#define MITOSIM_WORKLOADS_CANNEAL_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Random element swaps with neighbour reads. */
class Canneal : public WorkloadImpl<Canneal>
{
  public:
    explicit Canneal(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "canneal"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t ElementBytes = 128;
    static constexpr unsigned NeighbourReads = 2;

    VirtAddr elements = 0;
    std::uint64_t numElements = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_CANNEAL_H
