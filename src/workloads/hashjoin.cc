#include "hashjoin.h"

namespace mitosim::workloads
{

void
HashJoin::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;

    // 1/4 buckets, 3/4 tuples of the footprint.
    std::uint64_t bucket_bytes = alignUp(prm.footprint / 4, PageSize);
    std::uint64_t tuple_bytes = alignUp(prm.footprint - bucket_bytes,
                                        PageSize);
    auto rb = k.mmap(ctx.process(), bucket_bytes, opts);
    auto rt = k.mmap(ctx.process(), tuple_bytes, opts);
    buckets = rb.start;
    tuples = rt.start;
    numBuckets = bucket_bytes / BucketBytes;
    numTuples = tuple_bytes / TupleBytes;

    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::Shuffled;
    populateRegion(ctx, rb.start, rb.length, mode);
    populateRegion(ctx, rt.start, rt.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
HashJoin::genStep(OpSink &sink, int tid)
{
    auto &rng = rngs[static_cast<std::size_t>(tid)];

    // Probe: hash the key to a bucket, sometimes follow one overflow
    // bucket, then fetch the matching tuple's payload.
    std::uint64_t bucket = rng.below(numBuckets);
    sink.access(buckets + bucket * BucketBytes, false);
    if (rng.chance(OverflowChainProb)) {
        std::uint64_t next = rng.below(numBuckets);
        sink.access(buckets + next * BucketBytes, false);
    }
    std::uint64_t tuple = rng.below(numTuples);
    sink.access(tuples + tuple * TupleBytes, false);
    sink.compute(8); // hash + key compare
}

} // namespace mitosim::workloads
