#include "pagerank.h"

namespace mitosim::workloads
{

void
PageRank::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;

    // Budget: |E| * 8 bytes for the CSR edge array, |V| * 8 for ranks,
    // with |E| = AvgDegree * |V|.
    numVertices = prm.footprint / (RankBytes + AvgDegree * EdgeBytes);
    if (numVertices == 0)
        numVertices = 1;
    numEdges = numVertices * AvgDegree;
    auto re = k.mmap(ctx.process(),
                     alignUp(numEdges * EdgeBytes, PageSize), opts);
    auto rr = k.mmap(ctx.process(),
                     alignUp(numVertices * RankBytes, PageSize), opts);
    edges = re.start;
    ranks = rr.start;

    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::Partitioned;
    populateRegion(ctx, re.start, re.length, mode);
    populateRegion(ctx, rr.start, rr.length, mode);

    cursor.assign(static_cast<std::size_t>(ctx.numThreads()), 0);
    for (int t = 0; t < ctx.numThreads(); ++t) {
        cursor[static_cast<std::size_t>(t)] =
            (numVertices / static_cast<std::uint64_t>(ctx.numThreads())) *
            static_cast<std::uint64_t>(t);
    }
    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
PageRank::genStep(OpSink &sink, int tid)
{
    auto &v = cursor[static_cast<std::size_t>(tid)];
    auto &rng = rngs[static_cast<std::size_t>(tid)];

    // Sequential: this vertex's slice of the CSR edge array (AvgDegree
    // edge ids = 2 cache lines).
    VirtAddr edge_va = edges + v * AvgDegree * EdgeBytes;
    sink.access(edge_va, false);
    sink.access(edge_va + 64, false);

    // Random: gather a sample of the neighbours' ranks. Power-law-ish
    // targets: skewed towards hub vertices.
    for (int n = 0; n < 6; ++n) {
        std::uint64_t u = rng.skewed(numVertices, 0.1, 0.5);
        sink.access(ranks + u * RankBytes, false);
    }

    // Write the new rank.
    sink.access(ranks + v * RankBytes, true);
    sink.compute(10);
    v = (v + 1) % numVertices;
}

} // namespace mitosim::workloads
