/**
 * @file
 * Memcached: GET-dominated key-value caching (Table 1: 350 GB, the
 * Figure 3 dump subject). Skewed key popularity, a hash-bucket read, an
 * item-header read and a value read; 10% SETs write the value.
 */

#ifndef MITOSIM_WORKLOADS_MEMCACHED_H
#define MITOSIM_WORKLOADS_MEMCACHED_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Key-value cache traffic with a hot set. */
class Memcached : public WorkloadImpl<Memcached>
{
  public:
    explicit Memcached(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "memcached"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t BucketBytes = 64;
    static constexpr std::uint64_t ItemBytes = 512; //!< header + value
    static constexpr double SetRatio = 0.10;

    VirtAddr buckets = 0;
    VirtAddr items = 0;
    std::uint64_t numBuckets = 0;
    std::uint64_t numItems = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_MEMCACHED_H
