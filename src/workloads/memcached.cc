#include "memcached.h"

namespace mitosim::workloads
{

void
Memcached::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;

    std::uint64_t bucket_bytes = alignUp(prm.footprint / 8, PageSize);
    std::uint64_t item_bytes = alignUp(prm.footprint - bucket_bytes,
                                       PageSize);
    auto rb = k.mmap(ctx.process(), bucket_bytes, opts);
    auto ri = k.mmap(ctx.process(), item_bytes, opts);
    buckets = rb.start;
    items = ri.start;
    numBuckets = bucket_bytes / BucketBytes;
    numItems = item_bytes / ItemBytes;

    // Parallel SET storm: pages first-touched by whichever worker got
    // the key — the Shuffled pattern behind Figure 3's 67%-remote dump.
    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::Shuffled;
    populateRegion(ctx, rb.start, rb.length, mode);
    populateRegion(ctx, ri.start, ri.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
Memcached::genStep(OpSink &sink, int tid)
{
    auto &rng = rngs[static_cast<std::size_t>(tid)];

    // Skewed key choice: 80% of requests hit 20% of the items.
    std::uint64_t item = rng.skewed(numItems);
    std::uint64_t bucket = (item * 0x9e3779b97f4a7c15ull) % numBuckets;
    bool is_set = rng.chance(SetRatio);

    sink.access(buckets + bucket * BucketBytes, false);
    VirtAddr item_va = items + item * ItemBytes;
    sink.access(item_va, false);              // item header
    sink.access(item_va + 128, is_set);       // value line
    sink.compute(12); // hashing, memcmp of the key
}

} // namespace mitosim::workloads
