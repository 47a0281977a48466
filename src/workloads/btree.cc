#include "btree.h"

namespace mitosim::workloads
{

void
BTree::setup(os::ExecContext &ctx)
{
    // Size the implicit tree to fill the footprint: levels of Fanout^d
    // nodes until the budget is spent. The leaf level dominates.
    std::uint64_t budget_nodes = prm.footprint / NodeBytes;
    levelBase.clear();
    levelCount.clear();
    std::uint64_t level_nodes = 1;
    std::uint64_t used = 0;
    while (used + level_nodes <= budget_nodes) {
        levelBase.push_back(used);
        levelCount.push_back(level_nodes);
        used += level_nodes;
        if (level_nodes > budget_nodes / Fanout)
            break;
        level_nodes *= Fanout;
    }

    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;
    auto region = k.mmap(ctx.process(), used * NodeBytes, opts);
    base = region.start;

    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::Partitioned;
    populateRegion(ctx, region.start, region.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
BTree::genStep(OpSink &sink, int tid)
{
    // One lookup: descend from the root, reading one node per level.
    // The child choice is a hash of (key, level) so paths are uniform
    // and deterministic. Each node visit touches two of its cache lines
    // (keys then the child pointer slot).
    auto &rng = rngs[static_cast<std::size_t>(tid)];
    std::uint64_t key = rng.next();
    std::uint64_t idx = 0;
    for (std::size_t level = 0; level < levelBase.size(); ++level) {
        std::uint64_t node = levelBase[level] + idx;
        VirtAddr va = base + node * NodeBytes;
        sink.access(va, false);
        sink.access(va + 128, false);
        sink.compute(6); // key comparisons
        if (level + 1 < levelBase.size()) {
            std::uint64_t child_slot =
                (key >> (level * 4)) % Fanout;
            idx = idx * Fanout + child_slot;
            if (idx >= levelCount[level + 1])
                idx %= levelCount[level + 1];
        }
    }
}

} // namespace mitosim::workloads
