/**
 * @file
 * STREAM triad: a(i) = b(i) + s*c(i), purely sequential, bandwidth-bound.
 * The paper uses STREAM as the *interference* process that "hogs local
 * memory bandwidth" on a socket (§3.2); MitoSim models that pressure via
 * the topology's interference flag, but STREAM is also available as a
 * regular workload for tests and examples.
 */

#ifndef MITOSIM_WORKLOADS_STREAM_H
#define MITOSIM_WORKLOADS_STREAM_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Sequential triad sweeps over three arrays. */
class Stream : public WorkloadImpl<Stream>
{
  public:
    explicit Stream(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "stream"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    VirtAddr a = 0;
    VirtAddr b = 0;
    VirtAddr c = 0;
    std::uint64_t words = 0;
    std::vector<std::uint64_t> cursor; //!< per-thread position
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_STREAM_H
