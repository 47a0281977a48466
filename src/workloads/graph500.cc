#include "graph500.h"

namespace mitosim::workloads
{

void
Graph500::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;

    numVertices = prm.footprint / (AvgDegree * EdgeBytes + 8);
    if (numVertices == 0)
        numVertices = 1;
    auto re = k.mmap(ctx.process(),
                     alignUp(numVertices * AvgDegree * EdgeBytes,
                             PageSize),
                     opts);
    auto rv = k.mmap(ctx.process(), alignUp(numVertices * 8, PageSize),
                     opts);
    edges = re.start;
    visited = rv.start;

    // Graph generation happens on the main rank: classic skew.
    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::MainThread;
    populateRegion(ctx, re.start, re.length, mode);
    populateRegion(ctx, rv.start, rv.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
Graph500::genStep(OpSink &sink, int tid)
{
    auto &rng = rngs[static_cast<std::size_t>(tid)];

    // Explore one frontier vertex: read its edge slice sequentially,
    // then check-and-set a few random neighbours in the visited map
    // (Kronecker targets are skewed towards hubs).
    std::uint64_t v = rng.skewed(numVertices, 0.15, 0.6);
    VirtAddr edge_va = edges + v * AvgDegree * EdgeBytes;
    sink.access(edge_va, false);
    sink.access(edge_va + 64, false);
    for (int n = 0; n < 4; ++n) {
        std::uint64_t u = rng.skewed(numVertices, 0.15, 0.6);
        sink.access(visited + u * 8, true);
    }
    sink.compute(8);
}

} // namespace mitosim::workloads
