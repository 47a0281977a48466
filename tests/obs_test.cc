/**
 * @file
 * Observability subsystem tests (src/obs): metrics registry semantics
 * (log2-histogram percentiles, label rendering, reset-keeps-handles)
 * and the walk-cycle attribution invariant (the per-level x
 * local/remote buckets sum exactly to walkCycles, native and mitosis).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/obs/metrics.h"
#include "src/workloads/workload.h"

namespace mitosim
{
namespace
{

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

bench::PopulateSpec
testSpec(const std::string &workload, bool mitosis)
{
    bench::PopulateSpec spec;
    spec.machine = bench::benchMachine();
    spec.backend = mitosis ? snapshot::BackendKind::Mitosis
                           : snapshot::BackendKind::Native;
    spec.workload = workload;
    spec.params.footprint = 32ull << 20;
    spec.params.seed = 77;
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);
    return spec;
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
        auto u = bench::preparePopulated(testSpec("gups", mitosis));
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
