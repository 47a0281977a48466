#include "xsbench.h"

namespace mitosim::workloads
{

void
XsBench::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;

    std::uint64_t grid_bytes = alignUp(prm.footprint / 4, PageSize);
    std::uint64_t xs_bytes = alignUp(prm.footprint - grid_bytes, PageSize);
    auto rg = k.mmap(ctx.process(), grid_bytes, opts);
    auto rx = k.mmap(ctx.process(), xs_bytes, opts);
    grid = rg.start;
    xs = rx.start;
    gridEntries = grid_bytes / GridEntryBytes;
    xsRows = xs_bytes / XsRowBytes;

    // The grid is generated once up front by the main rank — the classic
    // first-touch skew case (§3.1 observation 2).
    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::MainThread;
    populateRegion(ctx, rg.start, rg.length, mode);
    populateRegion(ctx, rx.start, rx.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
XsBench::genStep(OpSink &sink, int tid)
{
    auto &rng = rngs[static_cast<std::size_t>(tid)];

    // Binary search over the energy grid: log2 steps, each halving the
    // range — the early probes are cache-resident, the late ones are
    // effectively random page touches.
    std::uint64_t lo = 0;
    std::uint64_t hi = gridEntries;
    std::uint64_t key = rng.below(gridEntries);
    int probes = 0;
    while (lo + 1 < hi && probes < 24) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        sink.access(grid + mid * GridEntryBytes, false);
        sink.compute(2);
        if (mid <= key)
            lo = mid;
        else
            hi = mid;
        ++probes;
    }

    // Gather the per-nuclide cross-section rows for the found bucket.
    for (unsigned n = 0; n < NuclidesPerLookup; ++n) {
        std::uint64_t row =
            (key * 0x9e3779b97f4a7c15ull + n * 0xc2b2ae3d27d4eb4full) %
            xsRows;
        sink.access(xs + row * XsRowBytes, false);
    }
    sink.compute(20); // interpolation math
}

} // namespace mitosim::workloads
