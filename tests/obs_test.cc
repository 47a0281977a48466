/**
 * @file
 * Observability subsystem tests (src/obs): metrics registry semantics
 * (log2-histogram percentiles, label rendering, reset-keeps-handles),
 * tracer ring behavior (overflow keeps the newest events and counts
 * the overwritten ones), deterministic per-category sampling, the
 * trace-identity contract (an enabled tracer forces the per-op
 * simulation path, so the exported JSON is byte-identical across
 * MITOSIM_FUSE={0,1} and MITOSIM_BATCH={0,1}), and the walk-cycle
 * attribution invariant (the per-level x local/remote buckets sum
 * exactly to walkCycles, native and mitosis).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/batch_op.h"
#include "src/workloads/workload.h"

namespace mitosim
{
namespace
{

constexpr unsigned AllCats = (1u << obs::NumTraceCats) - 1;

TEST(MetricsTest, HistogramPercentilesAreBucketFloors)
{
    obs::Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u);

    for (std::uint64_t v = 1; v <= 100; ++v)
        h.observe(v);
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.sum, 5050u);
    // Ranks 49/89/98 land in buckets [32,64) and [64,128); the
    // reported percentile is the bucket's lower bound.
    EXPECT_EQ(h.percentile(0.50), 32u);
    EXPECT_EQ(h.percentile(0.90), 64u);
    EXPECT_EQ(h.percentile(0.99), 64u);
}

TEST(MetricsTest, RegistryFlattensInRegistrationOrder)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("faults", {{"kind", "not_present"}});
    obs::Gauge &g = reg.gauge("replicas_live");
    obs::Histogram &h = reg.histogram("fault_cycles");
    c.inc(3);
    g.add(2);
    g.sub(5); // below the baseline: signed, not wrapped
    h.observe(8);

    auto flat = reg.flatten();
    ASSERT_EQ(flat.size(), 7u);
    EXPECT_EQ(flat[0].first, "faults{kind=not_present}");
    EXPECT_EQ(flat[0].second, 3.0);
    EXPECT_EQ(flat[1].first, "replicas_live");
    EXPECT_EQ(flat[1].second, -3.0);
    EXPECT_EQ(flat[2].first, "fault_cycles_count");
    EXPECT_EQ(flat[2].second, 1.0);
    EXPECT_EQ(flat[3].first, "fault_cycles_sum");
    EXPECT_EQ(flat[3].second, 8.0);
    EXPECT_EQ(flat[4].first, "fault_cycles_p50");
    EXPECT_EQ(flat[4].second, 8.0);

    // Re-registration returns the same instrument...
    EXPECT_EQ(&reg.counter("faults", {{"kind", "not_present"}}), &c);
    // ...and reset zeroes values while keeping every handle valid.
    reg.reset();
    c.inc();
    EXPECT_EQ(reg.flatten()[0].second, 1.0);
    EXPECT_EQ(reg.flatten()[1].second, 0.0);
}

TEST(TraceTest, RingOverflowKeepsNewestAndCountsDropped)
{
    obs::Tracer t;
    t.configure(AllCats, 4, 1, 0);
    for (std::uint64_t i = 0; i < 10; ++i) {
        t.instant(obs::TraceCat::Sched, "ev", 1, 0, "i", i);
        t.advance(1);
    }
    EXPECT_EQ(t.dropped(), 6u);
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    // The newest four, in chronological order.
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(evs[i].arg0, 6 + i);
        EXPECT_EQ(evs[i].ts, 6 + i);
    }
}

TEST(TraceTest, SamplingIsDeterministicUnderAFixedSeed)
{
    auto kept = [](std::uint64_t seed) {
        obs::Tracer t;
        t.configure(AllCats, 65536, 3, seed);
        for (std::uint64_t i = 0; i < 100; ++i)
            t.instant(obs::TraceCat::Fault, "f", 0, 0, "i", i);
        std::vector<std::uint64_t> out;
        for (const obs::TraceEvent &ev : t.events())
            out.push_back(ev.arg0);
        return out;
    };
    auto a = kept(42);
    EXPECT_EQ(a, kept(42));
    EXPECT_FALSE(a.empty());
    EXPECT_LT(a.size(), 100u);

    // The keep decision hashes the per-category sequence number, so a
    // disabled category interleaved between events does not perturb
    // which Fault events survive.
    obs::Tracer t;
    t.configure(1u << static_cast<unsigned>(obs::TraceCat::Fault),
                65536, 3, 42);
    for (std::uint64_t i = 0; i < 100; ++i) {
        t.instant(obs::TraceCat::Sched, "s", 0, 0); // masked off
        t.instant(obs::TraceCat::Fault, "f", 0, 0, "i", i);
    }
    std::vector<std::uint64_t> interleaved;
    for (const obs::TraceEvent &ev : t.events())
        interleaved.push_back(ev.arg0);
    EXPECT_EQ(a, interleaved);
}

TEST(TraceTest, ResetClearsStateButKeepsConfiguration)
{
    obs::Tracer t;
    t.configure(AllCats, 4, 1, 0);
    t.advance(7);
    for (int i = 0; i < 6; ++i)
        t.instant(obs::TraceCat::Thp, "ev", 0, 0);
    ASSERT_FALSE(t.events().empty());
    t.reset();
    EXPECT_TRUE(t.events().empty());
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.now(), 0u);
    EXPECT_TRUE(t.enabled());
    t.instant(obs::TraceCat::Thp, "ev", 0, 0);
    EXPECT_EQ(t.events().size(), 1u);
}

/// @name End-to-end fixtures (mirrors batched_step_test.cc)
/// @{

struct FuseModeGuard
{
    explicit FuseModeGuard(int mode) { sim::setFuseEnabledForTest(mode); }
    ~FuseModeGuard() { sim::setFuseEnabledForTest(-1); }
};

struct BatchModeGuard
{
    explicit BatchModeGuard(int mode)
    {
        workloads::setBatchEnabledForTest(mode);
    }
    ~BatchModeGuard() { workloads::setBatchEnabledForTest(-1); }
};

bench::PopulateSpec
testSpec(const std::string &workload, bool mitosis, bool time_shared)
{
    bench::PopulateSpec spec;
    spec.machine = bench::benchMachine();
    spec.backend = mitosis ? snapshot::BackendKind::Mitosis
                           : snapshot::BackendKind::Native;
    spec.workload = workload;
    spec.params.footprint = 32ull << 20;
    spec.params.seed = 77;
    spec.kernelCfg.sched.timeShared = time_shared;
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);
    return spec;
}

/** Run one traced measurement and return the exported trace JSON. */
std::string
tracedRun(const bench::PopulateSpec &spec)
{
    auto u = bench::preparePopulated(spec);
    u->machine.tracer().configure(AllCats, 65536, 1, 0);
    if (spec.backend != snapshot::BackendKind::Native) {
        u->mitosis().setReplicationMask(
            u->proc->roots(), u->proc->id(),
            SocketMask::all(u->machine.numSockets()));
        u->kernel.reloadContexts(*u->proc);
    }
    workloads::runInterleaved(*u->ctx, *u->workload, 600);
    std::string json = u->machine.tracer().exportJson();
    EXPECT_FALSE(u->machine.tracer().events().empty());
    u->finalize();
    return json;
}

/// @}

TEST(TraceTest, ExportIsByteIdenticalAcrossEnginePaths)
{
    auto spec = testSpec("memcached", true, true);
    std::string ref;
    {
        FuseModeGuard fuse(0);
        ref = tracedRun(spec);
    }
    ASSERT_FALSE(ref.empty());
    // Perfetto-parseable shape, at minimum.
    EXPECT_NE(ref.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(ref.find("\"ph\""), std::string::npos);
    {
        FuseModeGuard fuse(1);
        EXPECT_EQ(ref, tracedRun(spec));
    }
    {
        BatchModeGuard batch(0);
        EXPECT_EQ(ref, tracedRun(spec));
    }
}

void
expectAttrSumsToWalkCycles(const sim::PerfCounters &pc)
{
    Cycles sum = 0;
    for (unsigned l = 0; l < PtLevels; ++l)
        for (int r = 0; r < 2; ++r)
            sum += pc.walkCyclesAttr[l][r];
    EXPECT_EQ(sum, pc.walkCycles);
    EXPECT_GT(pc.walkCycles, 0u);
}

TEST(AttributionTest, BucketsSumToWalkCycles)
{
    for (bool mitosis : {false, true}) {
        SCOPED_TRACE(mitosis ? "mitosis" : "native");
        auto u = bench::preparePopulated(testSpec("gups", mitosis, false));
        if (mitosis) {
            u->mitosis().setReplicationMask(
                u->proc->roots(), u->proc->id(),
                SocketMask::all(u->machine.numSockets()));
            u->kernel.reloadContexts(*u->proc);
        }
        workloads::runInterleaved(*u->ctx, *u->workload, 800);
        expectAttrSumsToWalkCycles(u->ctx->totals());
        u->finalize();
    }
}

} // namespace
} // namespace mitosim
