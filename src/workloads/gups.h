/**
 * @file
 * GUPS (Giga Updates Per Second), the HPC Challenge RandomAccess kernel:
 * read-modify-write of random 8-byte words across one huge table. The
 * paper's most TLB-hostile workload (64 GB footprint, WM scenario;
 * headline 3.24x win for page-table migration in Figure 1).
 */

#ifndef MITOSIM_WORKLOADS_GUPS_H
#define MITOSIM_WORKLOADS_GUPS_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Random 8-byte updates over a single table. */
class Gups : public WorkloadImpl<Gups>
{
  public:
    explicit Gups(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "gups"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    VirtAddr base = 0;
    std::uint64_t words = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_GUPS_H
