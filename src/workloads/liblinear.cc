#include "liblinear.h"

namespace mitosim::workloads
{

void
LibLinear::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;

    std::uint64_t weight_bytes = alignUp(prm.footprint / 16, PageSize);
    std::uint64_t feature_bytes = alignUp(prm.footprint - weight_bytes,
                                          PageSize);
    auto rf = k.mmap(ctx.process(), feature_bytes, opts);
    auto rw = k.mmap(ctx.process(), weight_bytes, opts);
    features = rf.start;
    weights = rw.start;
    numSamples = feature_bytes / SampleBytes;
    numWeights = weight_bytes / sizeof(std::uint64_t);

    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::MainThread;
    populateRegion(ctx, rf.start, rf.length, mode);
    populateRegion(ctx, rw.start, rw.length, mode);

    cursor.assign(static_cast<std::size_t>(ctx.numThreads()), 0);
    for (int t = 0; t < ctx.numThreads(); ++t) {
        cursor[static_cast<std::size_t>(t)] =
            (numSamples / static_cast<std::uint64_t>(ctx.numThreads())) *
            static_cast<std::uint64_t>(t);
    }
    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
LibLinear::genStep(OpSink &sink, int tid)
{
    auto &s = cursor[static_cast<std::size_t>(tid)];
    auto &rng = rngs[static_cast<std::size_t>(tid)];

    // Stream the sample's feature lines (sequential — TLB friendly).
    VirtAddr sample_va = features + s * SampleBytes;
    for (std::uint64_t line = 0; line < SampleBytes / 64; ++line)
        sink.access(sample_va + line * 64, false);

    // Sparse weight updates at the sample's nonzero coordinates.
    for (unsigned u = 0; u < SparseUpdates; ++u) {
        std::uint64_t w = rng.below(numWeights);
        sink.access(weights + w * sizeof(std::uint64_t), true);
    }
    sink.compute(30); // dot products
    s = (s + 1) % numSamples;
}

} // namespace mitosim::workloads
