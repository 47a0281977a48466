/**
 * @file
 * HashJoin: the probe phase of a database hash join (Table 1: 480 GB MS /
 * 17 GB WM) — random bucket reads with occasional overflow-chain hops,
 * then a payload fetch from the tuple arena.
 */

#ifndef MITOSIM_WORKLOADS_HASHJOIN_H
#define MITOSIM_WORKLOADS_HASHJOIN_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Hash-table probing over a bucket array and a tuple arena. */
class HashJoin : public WorkloadImpl<HashJoin>
{
  public:
    explicit HashJoin(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "hashjoin"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t BucketBytes = 64; //!< one line
    static constexpr std::uint64_t TupleBytes = 64;
    static constexpr double OverflowChainProb = 0.25;

    VirtAddr buckets = 0;
    VirtAddr tuples = 0;
    std::uint64_t numBuckets = 0;
    std::uint64_t numTuples = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_HASHJOIN_H
