#include "redis.h"

namespace mitosim::workloads
{

void
Redis::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;

    std::uint64_t per_key = EntryBytes + ObjBytes + ValueBytes;
    numKeys = prm.footprint / per_key;
    auto re = k.mmap(ctx.process(),
                     alignUp(numKeys * EntryBytes, PageSize), opts);
    auto ro = k.mmap(ctx.process(),
                     alignUp(numKeys * ObjBytes, PageSize), opts);
    auto rv = k.mmap(ctx.process(),
                     alignUp(numKeys * ValueBytes, PageSize), opts);
    entries = re.start;
    objects = ro.start;
    values = rv.start;

    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::MainThread;
    populateRegion(ctx, re.start, re.length, mode);
    populateRegion(ctx, ro.start, ro.length, mode);
    populateRegion(ctx, rv.start, rv.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
Redis::genStep(OpSink &sink, int tid)
{
    auto &rng = rngs[static_cast<std::size_t>(tid)];
    std::uint64_t key = rng.skewed(numKeys);
    bool is_write = rng.chance(WriteRatio);

    // The allocator scatters the three pieces of a key across arenas, so
    // the chase spans three pages: dictEntry -> robj -> sds bytes.
    std::uint64_t entry = (key * 0x9e3779b97f4a7c15ull) % numKeys;
    sink.access(entries + entry * EntryBytes, false);
    std::uint64_t obj = (key * 0xc2b2ae3d27d4eb4full) % numKeys;
    sink.access(objects + obj * ObjBytes, false);
    VirtAddr value_va = values + key * ValueBytes;
    sink.access(value_va, is_write);
    sink.access(value_va + 128, is_write);
    sink.compute(15); // protocol parse + hash
}

} // namespace mitosim::workloads
