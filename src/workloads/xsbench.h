/**
 * @file
 * XSBench: the Monte Carlo neutronics macroscopic-cross-section lookup
 * kernel (Table 1: 440 GB MS / 85 GB WM). Each lookup binary-searches the
 * unionized energy grid, then gathers per-nuclide cross-section rows —
 * a burst of dependent, effectively random reads.
 */

#ifndef MITOSIM_WORKLOADS_XSBENCH_H
#define MITOSIM_WORKLOADS_XSBENCH_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Unionized-grid cross-section lookups. */
class XsBench : public WorkloadImpl<XsBench>
{
  public:
    explicit XsBench(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "xsbench"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t GridEntryBytes = 64;
    static constexpr std::uint64_t XsRowBytes = 64;
    static constexpr unsigned NuclidesPerLookup = 5;

    VirtAddr grid = 0;
    VirtAddr xs = 0;
    std::uint64_t gridEntries = 0;
    std::uint64_t xsRows = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_XSBENCH_H
