/**
 * @file
 * Redis: single-threaded-style key-value store traffic (Table 1: 75 GB,
 * WM scenario). Deeper pointer chase than Memcached: dict entry ->
 * object header -> value string, all in different arenas.
 */

#ifndef MITOSIM_WORKLOADS_REDIS_H
#define MITOSIM_WORKLOADS_REDIS_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Dict-entry / robj / sds chase per GET. */
class Redis : public WorkloadImpl<Redis>
{
  public:
    explicit Redis(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "redis"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t EntryBytes = 64;
    static constexpr std::uint64_t ObjBytes = 64;
    static constexpr std::uint64_t ValueBytes = 256;
    static constexpr double WriteRatio = 0.05;

    VirtAddr entries = 0;
    VirtAddr objects = 0;
    VirtAddr values = 0;
    std::uint64_t numKeys = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_REDIS_H
