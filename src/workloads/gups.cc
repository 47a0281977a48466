#include "gups.h"

namespace mitosim::workloads
{

void
Gups::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;
    auto region = k.mmap(ctx.process(), prm.footprint, opts);
    base = region.start;
    words = region.length / sizeof(std::uint64_t);

    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::Partitioned;
    populateRegion(ctx, region.start, region.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
Gups::genStep(OpSink &sink, int tid)
{
    // One RMW of a uniformly random word: XOR-update, as in HPCC
    // RandomAccess. The simulator charges the load+store as one write
    // reference (same line) plus a couple of ALU cycles.
    auto &rng = rngs[static_cast<std::size_t>(tid)];
    VirtAddr va = base + rng.below(words) * sizeof(std::uint64_t);
    sink.access(va, true);
    sink.compute(4);
}

} // namespace mitosim::workloads
