/**
 * @file
 * LibLinear: dual coordinate-descent training of a linear classifier
 * (Table 1: 67 GB, WM scenario). Streams one sample's feature vector
 * sequentially, then updates the weight vector at that sample's sparse
 * nonzero indices — a streaming-heavy workload with a modest random
 * component, hence the smallest remote-page-table penalty in Figure 10a.
 */

#ifndef MITOSIM_WORKLOADS_LIBLINEAR_H
#define MITOSIM_WORKLOADS_LIBLINEAR_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Feature-matrix sweeps with sparse weight updates. */
class LibLinear : public WorkloadImpl<LibLinear>
{
  public:
    explicit LibLinear(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "liblinear"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t SampleBytes = 512; //!< 8 lines/sample
    static constexpr unsigned SparseUpdates = 3;

    VirtAddr features = 0;
    VirtAddr weights = 0;
    std::uint64_t numSamples = 0;
    std::uint64_t numWeights = 0;
    std::vector<std::uint64_t> cursor;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_LIBLINEAR_H
