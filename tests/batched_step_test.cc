/**
 * @file
 * Property tests for the batched stepping engine: replaying workload
 * ops through stepBatch()/runBatch() must be byte-identical to the
 * per-op reference loop — per-thread counters AND subsequent machine
 * state (caches, TLBs, A/D bits, page-table placement) — for every
 * batch size, across the full configuration cross product the hot
 * path specializes for: {gups, memcached, btree} x {native, mitosis}
 * x {4 KB, THP} x {pinned, time-shared}.
 *
 * Machine-state convergence is proved by a per-op continuation after
 * the compared phase, run identically on both machines: divergent
 * cache or TLB contents would split the continuations' counters. A
 * Figure 3-style page-table dump pins down PTE placement exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/pt_dump.h"
#include "src/workloads/workload.h"

namespace mitosim::workloads
{
namespace
{

/** Restore the environment-driven batch setting on scope exit. */
struct BatchModeGuard
{
    explicit BatchModeGuard(int mode) { setBatchEnabledForTest(mode); }
    ~BatchModeGuard() { setBatchEnabledForTest(-1); }
};

/** Restore the environment-driven fusion setting on scope exit. */
struct FuseModeGuard
{
    explicit FuseModeGuard(int mode) { sim::setFuseEnabledForTest(mode); }
    ~FuseModeGuard() { sim::setFuseEnabledForTest(-1); }
};

bench::PopulateSpec
testSpec(const std::string &workload, bool thp, bool time_shared)
{
    bench::PopulateSpec spec;
    spec.machine = bench::benchMachine();
    spec.backend = snapshot::BackendKind::Mitosis;
    spec.workload = workload;
    spec.params.footprint = 32ull << 20;
    spec.params.seed = 77;
    spec.params.thp = thp;
    spec.kernelCfg.sched.timeShared = time_shared;
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);
    return spec;
}

/** Fork a populated universe and apply the post-populate config. */
std::unique_ptr<snapshot::Universe>
prepare(const bench::PopulateSpec &spec, bool mitosis)
{
    auto u = bench::preparePopulated(spec);
    if (mitosis) {
        u->mitosis().setReplicationMask(
            u->proc->roots(), u->proc->id(),
            SocketMask::all(u->machine.numSockets()));
        u->kernel.reloadContexts(*u->proc);
    }
    return u;
}

bool
countersMatch(os::ExecContext &a, os::ExecContext &b)
{
    if (a.numThreads() != b.numThreads())
        return false;
    for (int t = 0; t < a.numThreads(); ++t) {
        if (std::memcmp(&a.threadCounters(t), &b.threadCounters(t),
                        sizeof(sim::PerfCounters)) != 0)
            return false;
    }
    return true;
}

std::string
ptDumpOf(snapshot::Universe &u)
{
    analysis::PtAnalyzer analyzer(u.machine.physmem(), u.kernel.ptOps());
    return analyzer.snapshot(u.proc->roots()).str();
}

TEST(BatchedStepTest, ByteIdenticalToPerOpReference)
{
    for (const char *wl : {"gups", "memcached", "btree"}) {
        for (bool mitosis : {false, true}) {
            for (bool thp : {false, true}) {
                for (bool time_shared : {false, true}) {
                    auto spec = testSpec(wl, thp, time_shared);
                    SCOPED_TRACE(std::string(wl) +
                                 (mitosis ? " mitosis" : " native") +
                                 (thp ? " thp" : " 4k") +
                                 (time_shared ? " time-shared"
                                              : " pinned"));

                    for (unsigned chunk : {1u, 7u, 32u}) {
                        SCOPED_TRACE("chunk=" + std::to_string(chunk));

                        // Per-op reference: identical universe, same
                        // interleaving granule, batching forced off.
                        auto ref = prepare(spec, mitosis);
                        {
                            BatchModeGuard guard(0);
                            runInterleaved(*ref->ctx, *ref->workload,
                                           1200, chunk);
                        }

                        auto bat = prepare(spec, mitosis);
                        {
                            BatchModeGuard guard(1);
                            runInterleaved(*bat->ctx, *bat->workload,
                                           1200, chunk);
                        }

                        ASSERT_GT(ref->ctx->runtime(), 0u);
                        EXPECT_TRUE(
                            countersMatch(*ref->ctx, *bat->ctx));
                        EXPECT_EQ(ref->ctx->runtime(),
                                  bat->ctx->runtime());

                        // PTE placement (and A/D bits feeding it) must
                        // agree exactly, not just counters.
                        EXPECT_EQ(ptDumpOf(*ref), ptDumpOf(*bat));

                        // Identical *per-op* continuations prove the
                        // cache/TLB/PWC state converged too.
                        {
                            BatchModeGuard guard(0);
                            runInterleaved(*ref->ctx, *ref->workload,
                                           400, chunk);
                            runInterleaved(*bat->ctx, *bat->workload,
                                           400, chunk);
                        }
                        EXPECT_TRUE(
                            countersMatch(*ref->ctx, *bat->ctx))
                            << "(per-op continuation)";

                        ref->finalize();
                        bat->finalize();
                    }
                }
            }
        }
    }
}

/**
 * Run fusion (Core::accessRun) must be byte-identical to the per-op
 * reference loop for real replay streams. Exercised over the workloads
 * with the most same-page adjacency (streaming liblinear, xsbench's
 * grid gathers, btree's node scans) so fused runs actually form, and
 * over page-size x backend so both 4 KB and 2 MB run-break masks are
 * hit. Pinned mode only: time-sharing takes the literal per-op path
 * where fusion never engages.
 */
TEST(BatchedStepTest, FusedReplayByteIdenticalToUnfused)
{
    for (const char *wl : {"liblinear", "xsbench", "btree"}) {
        for (bool mitosis : {false, true}) {
            for (bool thp : {false, true}) {
                auto spec = testSpec(wl, thp, /*time_shared=*/false);
                SCOPED_TRACE(std::string(wl) +
                             (mitosis ? " mitosis" : " native") +
                             (thp ? " thp" : " 4k"));

                for (unsigned chunk : {1u, 32u}) {
                    SCOPED_TRACE("chunk=" + std::to_string(chunk));

                    auto ref = prepare(spec, mitosis);
                    {
                        BatchModeGuard batch(1);
                        FuseModeGuard fuse(0);
                        runInterleaved(*ref->ctx, *ref->workload, 1200,
                                       chunk);
                    }

                    auto fus = prepare(spec, mitosis);
                    {
                        BatchModeGuard batch(1);
                        FuseModeGuard fuse(1);
                        runInterleaved(*fus->ctx, *fus->workload, 1200,
                                       chunk);
                    }

                    ASSERT_GT(ref->ctx->runtime(), 0u);
                    EXPECT_TRUE(countersMatch(*ref->ctx, *fus->ctx));
                    EXPECT_EQ(ref->ctx->runtime(), fus->ctx->runtime());
                    EXPECT_EQ(ptDumpOf(*ref), ptDumpOf(*fus));

                    // Identical *per-op* continuations prove the
                    // cache/TLB state the fused path left behind
                    // converged, not just the counters.
                    {
                        BatchModeGuard batch(0);
                        FuseModeGuard fuse(0);
                        runInterleaved(*ref->ctx, *ref->workload, 400,
                                       chunk);
                        runInterleaved(*fus->ctx, *fus->workload, 400,
                                       chunk);
                    }
                    EXPECT_TRUE(countersMatch(*ref->ctx, *fus->ctx))
                        << "(per-op continuation)";

                    ref->finalize();
                    fus->finalize();
                }
            }
        }
    }
}

/**
 * Adversarial run formation: hand-built BatchOp streams aimed at every
 * run boundary — stride-1 line sweeps (a new cache line each op, same
 * page), sub-line repeats, accesses hopping back and forth across one
 * line boundary, interleaved writes and reads on a single line,
 * compute ops embedded mid-run, and page-boundary crossings. Each
 * stream is replayed three ways on identical universes: unfused
 * reference, fused in one runBatch call, and fused with the stream
 * chopped into 5-op batches (runs split across batch boundaries must
 * re-probe at each batch head and still converge).
 */
TEST(BatchedStepTest, AdversarialRunFormationMatchesPerOp)
{
    for (bool thp : {false, true}) {
        SCOPED_TRACE(thp ? "thp" : "4k");
        auto spec = testSpec("gups", thp, /*time_shared=*/false);

        auto ref = prepare(spec, /*mitosis=*/true);
        auto fus = prepare(spec, /*mitosis=*/true);
        auto split = prepare(spec, /*mitosis=*/true);

        // Lowest mapped (and populated) VA of the workload heap.
        ASSERT_FALSE(ref->proc->vmas().empty());
        const VirtAddr base = ref->proc->vmas().begin()->first;

        std::vector<sim::BatchOp> ops;
        auto acc = [&](VirtAddr va, bool w) {
            ops.push_back({va, 0, w, false});
        };
        auto comp = [&](Cycles c) { ops.push_back({0, c, false, true}); };

        // Stride-1 line sweep: one 4 KB page, a fresh line every op.
        for (VirtAddr off = 0; off < PageSize; off += LineSize)
            acc(base + off, (off / LineSize) % 2 == 0);
        // Sub-line repeats: 16 ops inside one line, mixed read/write.
        for (int i = 0; i < 16; ++i)
            acc(base + static_cast<VirtAddr>(i * 4), i % 3 == 0);
        // Line-straddling hops: alternate across one line boundary.
        for (int i = 0; i < 8; ++i)
            acc(base + LineSize - 1 + static_cast<VirtAddr>(i % 2),
                false);
        // Interleaved write/read on a single address.
        for (int i = 0; i < 12; ++i)
            acc(base + 2 * LineSize, i % 2 == 0);
        // Computes embedded mid-run must charge without ending the run.
        acc(base, false);
        comp(3);
        acc(base + 8, true);
        comp(5);
        acc(base + LineSize, false);
        // Page-boundary crossing: run must break at the 4 KB page edge
        // (and, under THP, only at the 2 MB edge for the huge VMA).
        for (VirtAddr off = PageSize - 2 * LineSize;
             off < PageSize + 2 * LineSize; off += LineSize)
            acc(base + off, true);

        {
            BatchModeGuard batch(1);
            FuseModeGuard fuse(0);
            ref->ctx->runBatch(0, ops.data(), ops.size());
        }
        {
            BatchModeGuard batch(1);
            FuseModeGuard fuse(1);
            fus->ctx->runBatch(0, ops.data(), ops.size());
            // Same stream, chopped: runs split across batch boundaries.
            for (std::size_t i = 0; i < ops.size(); i += 5)
                split->ctx->runBatch(0, ops.data() + i,
                                     std::min<std::size_t>(
                                         5, ops.size() - i));
        }

        EXPECT_TRUE(countersMatch(*ref->ctx, *fus->ctx)) << "(fused)";
        EXPECT_TRUE(countersMatch(*ref->ctx, *split->ctx)) << "(split)";
        EXPECT_EQ(ptDumpOf(*ref), ptDumpOf(*fus));
        EXPECT_EQ(ptDumpOf(*ref), ptDumpOf(*split));

        // Per-op continuation over the same addresses: any cache/TLB
        // divergence the fused paths left behind would split counters.
        {
            BatchModeGuard batch(0);
            FuseModeGuard fuse(0);
            ref->ctx->runBatch(0, ops.data(), ops.size());
            fus->ctx->runBatch(0, ops.data(), ops.size());
            split->ctx->runBatch(0, ops.data(), ops.size());
        }
        EXPECT_TRUE(countersMatch(*ref->ctx, *fus->ctx))
            << "(per-op continuation, fused)";
        EXPECT_TRUE(countersMatch(*ref->ctx, *split->ctx))
            << "(per-op continuation, split)";

        ref->finalize();
        fus->finalize();
        split->finalize();
    }
}

} // namespace
} // namespace mitosim::workloads
