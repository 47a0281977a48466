/**
 * @file
 * Unit tests for bench/report: the JSON value model, the strict parser,
 * and the BENCH_<name>.json schema every benchmark binary emits (keys
 * present, metrics finite, writer output round-trips through the
 * parser — including through a real file).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench/report.h"

namespace mitosim::bench
{
namespace
{

/// @name JsonValue model + serializer
/// @{

TEST(JsonValue, ScalarKinds)
{
    EXPECT_EQ(JsonValue::null().kind(), JsonValue::Kind::Null);
    EXPECT_TRUE(JsonValue::boolean(true).asBool());
    EXPECT_EQ(JsonValue::number(2.5).asNumber(), 2.5);
    EXPECT_EQ(JsonValue::string("hi").asString(), "hi");
}

TEST(JsonValue, NonFiniteNumbersDegradeToNull)
{
    EXPECT_EQ(JsonValue::number(std::nan("")).kind(),
              JsonValue::Kind::Null);
    EXPECT_EQ(
        JsonValue::number(std::numeric_limits<double>::infinity()).kind(),
        JsonValue::Kind::Null);
}

TEST(JsonValue, ObjectPreservesInsertionOrderAndReplaces)
{
    JsonValue obj = JsonValue::object();
    obj.set("b", JsonValue::number(1));
    obj.set("a", JsonValue::number(2));
    obj.set("b", JsonValue::number(3)); // replaces, keeps position
    ASSERT_EQ(obj.size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "b");
    EXPECT_EQ(obj.members()[0].second.asNumber(), 3.0);
    EXPECT_EQ(obj.members()[1].first, "a");
    ASSERT_NE(obj.find("a"), nullptr);
    EXPECT_EQ(obj.find("a")->asNumber(), 2.0);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonValue, StringEscaping)
{
    JsonValue v = JsonValue::string("a\"b\\c\nd\te\x01");
    EXPECT_EQ(v.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    auto back = parseJson(v.str());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->asString(), "a\"b\\c\nd\te\x01");
}

TEST(JsonValue, NumbersSerializeShortestRoundTrip)
{
    EXPECT_EQ(JsonValue::number(1.0).str(), "1");
    EXPECT_EQ(JsonValue::number(0.25).str(), "0.25");
    EXPECT_EQ(JsonValue::number(134217728.0).str(), "134217728");
    // A value with no short decimal form still round-trips exactly.
    double v = 0.1 + 0.2;
    auto parsed = parseJson(JsonValue::number(v).str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asNumber(), v);
}

/// @}
/// @name Parser
/// @{

TEST(JsonParser, ParsesNestedDocument)
{
    auto doc = parseJson(R"({"a": [1, 2.5, -3e2, true, null],
                             "b": {"c": "d"}, "e": []})");
    ASSERT_TRUE(doc.has_value());
    const JsonValue *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->size(), 5u);
    EXPECT_EQ(a->at(0).asNumber(), 1.0);
    EXPECT_EQ(a->at(2).asNumber(), -300.0);
    EXPECT_TRUE(a->at(3).asBool());
    EXPECT_EQ(a->at(4).kind(), JsonValue::Kind::Null);
    const JsonValue *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_NE(b->find("c"), nullptr);
    EXPECT_EQ(b->find("c")->asString(), "d");
    EXPECT_EQ(doc->find("e")->size(), 0u);
}

TEST(JsonParser, RejectsMalformedInput)
{
    for (const char *bad : {"", "{", "[1,", "{\"a\":}", "[1 2]",
                            "nul", "01x", "\"unterminated", "{'a':1}",
                            "[1] trailing", "{\"a\":1,}", "nan",
                            "[\"\x01raw control\"]",
                            // Number forms strtod accepts but JSON
                            // forbids (RFC 8259 §6).
                            "+1", "01", ".5", "5.", "-.5", "[1,+2]",
                            "1e", "1e+", "0x10", "inf"})
        EXPECT_FALSE(parseJson(bad).has_value()) << bad;
}

TEST(JsonParser, RejectsRunawayNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(parseJson(deep).has_value());
}

/// @}
/// @name BenchReport schema
/// @{

/** The writer's document, re-read through the parser. */
JsonValue
roundTrip(const BenchReport &report)
{
    auto parsed = parseJson(report.str());
    EXPECT_TRUE(parsed.has_value());
    return parsed.value_or(JsonValue::null());
}

BenchReport
sampleReport()
{
    BenchReport report("fig99_sample");
    report.config("num_sockets", 4.0);
    report.config("thp", "off");
    report.addRun("canneal F")
        .tag("workload", "canneal")
        .tag("config", "F")
        .metric("norm_runtime", 1.0)
        .metric("walk_fraction", 0.41)
        .metric("remote_pt_fraction", 0.62);
    report.addRun("canneal F+M")
        .tag("workload", "canneal")
        .tag("config", "F+M")
        .metric("norm_runtime", 0.76)
        .metric("walk_fraction", 0.2)
        .metric("remote_pt_fraction", 0.01);
    report.speedup("canneal F/F+M", 1.31);
    return report;
}

TEST(BenchReport, SchemaKeysPresent)
{
    JsonValue doc = roundTrip(sampleReport());
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("schema_version"), nullptr);
    EXPECT_EQ(doc.find("schema_version")->asNumber(), 1.0);
    ASSERT_NE(doc.find("bench"), nullptr);
    EXPECT_EQ(doc.find("bench")->asString(), "fig99_sample");
    ASSERT_NE(doc.find("config"), nullptr);
    EXPECT_TRUE(doc.find("config")->isObject());
    ASSERT_NE(doc.find("runs"), nullptr);
    EXPECT_TRUE(doc.find("runs")->isArray());
    ASSERT_NE(doc.find("speedups"), nullptr);
    EXPECT_TRUE(doc.find("speedups")->isObject());
    // Host telemetry is opt-in: absent unless wallMs() was recorded.
    EXPECT_EQ(doc.find("wall_ms"), nullptr);
    // Likewise the per-job metrics: absent until a job records one.
    EXPECT_EQ(doc.find("metrics"), nullptr);
}

// The check, THP and scheduler stats share one per-job section,
// `metrics`, with the families told apart by key prefix. Each family
// is grouped per job there and never mirrored into any run's metrics:
// the section is diagnostic and excluded from metric comparisons.

TEST(BenchReport, CheckSectionGroupsStatsPerJobAndStaysOutOfMetrics)
{
    BenchReport report = sampleReport();
    report.metricStat("gups/F", "check_checkpoints", 34.0);
    report.metricStat("gups/F", "check_violations", 0.0);
    report.metricStat("gups/F+M", "check_violations", 0.0);
    JsonValue doc = roundTrip(report);

    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    EXPECT_EQ(metrics->size(), 2u); // one object per job
    const JsonValue *job = metrics->find("gups/F");
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->size(), 2u);
    ASSERT_NE(job->find("check_checkpoints"), nullptr);
    EXPECT_EQ(job->find("check_checkpoints")->asNumber(), 34.0);
    ASSERT_NE(job->find("check_violations"), nullptr);
    EXPECT_EQ(job->find("check_violations")->asNumber(), 0.0);
    const JsonValue *other = metrics->find("gups/F+M");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->size(), 1u);

    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const JsonValue *run_metrics = runs->at(i).find("metrics");
        ASSERT_NE(run_metrics, nullptr);
        EXPECT_EQ(run_metrics->size(), 3u);
        EXPECT_EQ(run_metrics->find("check_checkpoints"), nullptr);
        EXPECT_EQ(run_metrics->find("check_violations"), nullptr);
    }
}

TEST(BenchReport, ThpSectionGroupsStatsPerJobAndStaysOutOfMetrics)
{
    BenchReport report = sampleReport();
    report.metricStat("gups/native-on", "thp_collapses", 1024.0);
    report.metricStat("gups/native-on", "thp_splits", 3.0);
    report.metricStat("gups/mitosis-on", "thp_collapses", 1024.0);
    JsonValue doc = roundTrip(report);

    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    EXPECT_EQ(metrics->size(), 2u);
    const JsonValue *job = metrics->find("gups/native-on");
    ASSERT_NE(job, nullptr);
    ASSERT_NE(job->find("thp_collapses"), nullptr);
    EXPECT_EQ(job->find("thp_collapses")->asNumber(), 1024.0);
    ASSERT_NE(job->find("thp_splits"), nullptr);
    EXPECT_EQ(job->find("thp_splits")->asNumber(), 3.0);
    const JsonValue *other = metrics->find("gups/mitosis-on");
    ASSERT_NE(other, nullptr);
    ASSERT_NE(other->find("thp_collapses"), nullptr);
    EXPECT_EQ(other->find("thp_collapses")->asNumber(), 1024.0);

    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const JsonValue *run_metrics = runs->at(i).find("metrics");
        ASSERT_NE(run_metrics, nullptr);
        EXPECT_EQ(run_metrics->size(), 3u);
        EXPECT_EQ(run_metrics->find("thp_collapses"), nullptr);
        EXPECT_EQ(run_metrics->find("thp_splits"), nullptr);
    }
}

TEST(BenchReport, SchedulerSectionGroupsStatsPerJob)
{
    BenchReport report = sampleReport();
    report.metricStat("tenants/pcid-on", "sched_context_switches", 192.0);
    report.metricStat("tenants/pcid-on", "sched_preemptions", 40.0);
    report.metricStat("tenants/pcid-off", "sched_context_switches", 192.0);
    JsonValue doc = roundTrip(report);

    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    EXPECT_EQ(metrics->size(), 2u);
    const JsonValue *on = metrics->find("tenants/pcid-on");
    ASSERT_NE(on, nullptr);
    ASSERT_NE(on->find("sched_context_switches"), nullptr);
    EXPECT_EQ(on->find("sched_context_switches")->asNumber(), 192.0);
    ASSERT_NE(on->find("sched_preemptions"), nullptr);
    EXPECT_EQ(on->find("sched_preemptions")->asNumber(), 40.0);

    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const JsonValue *run_metrics = runs->at(i).find("metrics");
        ASSERT_NE(run_metrics, nullptr);
        EXPECT_EQ(run_metrics->size(), 3u);
        EXPECT_EQ(run_metrics->find("sched_context_switches"), nullptr);
        EXPECT_EQ(run_metrics->find("sched_preemptions"), nullptr);
    }
}

TEST(BenchReport, WallMsSectionIsSeparateFromMetrics)
{
    BenchReport report = sampleReport();
    report.wallMs("canneal F", 12.5);
    report.wallMs("canneal F+M", 8.25);
    report.wallMs("total", 21.0);
    JsonValue doc = roundTrip(report);

    const JsonValue *wall = doc.find("wall_ms");
    ASSERT_NE(wall, nullptr);
    ASSERT_TRUE(wall->isObject());
    EXPECT_EQ(wall->size(), 3u);
    ASSERT_NE(wall->find("canneal F"), nullptr);
    EXPECT_EQ(wall->find("canneal F")->asNumber(), 12.5);
    EXPECT_EQ(wall->find("total")->asNumber(), 21.0);

    // wall_ms never leaks into any run's metrics: metric-comparison
    // tooling diffs "runs"/"speedups" and ignores "wall_ms" wholesale.
    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const JsonValue *metrics = runs->at(i).find("metrics");
        ASSERT_NE(metrics, nullptr);
        EXPECT_EQ(metrics->find("wall_ms"), nullptr);
    }
}

TEST(BenchReport, WallMsHostStatExtendsPhaseObjectEntries)
{
    BenchReport report = sampleReport();
    report.wallMsPhases("canneal F", {20.0, 8.0, 10.0}, {16.0, 7.0, 8.5},
                        /*sim_accesses=*/1000);
    report.wallMsHostStat("canneal F", "fused_runs", 42.0);
    report.wallMsHostStat("canneal F", "fused_ops", 99.0);
    JsonValue doc = roundTrip(report);

    const JsonValue *wall = doc.find("wall_ms");
    ASSERT_NE(wall, nullptr);
    const JsonValue *entry = wall->find("canneal F");
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(entry->isObject());
    // Phase breakdown written first survives the host-stat appends.
    ASSERT_NE(entry->find("total"), nullptr);
    EXPECT_EQ(entry->find("total")->asNumber(), 20.0);
    EXPECT_EQ(entry->find("populate")->asNumber(), 8.0);
    EXPECT_EQ(entry->find("run")->asNumber(), 10.0);
    EXPECT_EQ(entry->find("report")->asNumber(), 2.0);
    // The thread-CPU twins of total / populate / run sit beside them.
    ASSERT_NE(entry->find("total_cpu"), nullptr);
    EXPECT_EQ(entry->find("total_cpu")->asNumber(), 16.0);
    ASSERT_NE(entry->find("populate_cpu"), nullptr);
    EXPECT_EQ(entry->find("populate_cpu")->asNumber(), 7.0);
    ASSERT_NE(entry->find("run_cpu"), nullptr);
    EXPECT_EQ(entry->find("run_cpu")->asNumber(), 8.5);
    ASSERT_NE(entry->find("host_ops_per_sec"), nullptr);
    EXPECT_DOUBLE_EQ(entry->find("host_ops_per_sec")->asNumber(), 1e5);
    ASSERT_NE(entry->find("fused_runs"), nullptr);
    EXPECT_EQ(entry->find("fused_runs")->asNumber(), 42.0);
    EXPECT_EQ(entry->find("fused_ops")->asNumber(), 99.0);
}

TEST(BenchReport, WallMsHostStatPromotesScalarEntryToObject)
{
    BenchReport report = sampleReport();
    report.wallMs("canneal F", 12.5);
    report.wallMsHostStat("canneal F", "arena_slabs", 3.0);
    JsonValue doc = roundTrip(report);

    // The scalar wall-clock written by wallMs() becomes the "total"
    // member of the object form so both shapes compose in one schema.
    const JsonValue *entry = doc.find("wall_ms")->find("canneal F");
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(entry->isObject());
    ASSERT_NE(entry->find("total"), nullptr);
    EXPECT_EQ(entry->find("total")->asNumber(), 12.5);
    EXPECT_EQ(entry->find("arena_slabs")->asNumber(), 3.0);

    // A host stat for a label never seen still creates a valid entry.
    report.wallMsHostStat("fresh job", "fused_runs", 1.0);
    JsonValue doc2 = roundTrip(report);
    const JsonValue *fresh = doc2.find("wall_ms")->find("fresh job");
    ASSERT_NE(fresh, nullptr);
    ASSERT_TRUE(fresh->isObject());
    EXPECT_EQ(fresh->find("fused_runs")->asNumber(), 1.0);
}

TEST(BenchReport, RunsCarryLabelTagsAndFiniteMetrics)
{
    JsonValue doc = roundTrip(sampleReport());
    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 2u);
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const JsonValue &run = runs->at(i);
        ASSERT_NE(run.find("label"), nullptr);
        EXPECT_TRUE(run.find("label")->isString());
        const JsonValue *tags = run.find("tags");
        ASSERT_NE(tags, nullptr);
        for (const auto &[key, value] : tags->members()) {
            EXPECT_FALSE(key.empty());
            EXPECT_TRUE(value.isString());
        }
        const JsonValue *metrics = run.find("metrics");
        ASSERT_NE(metrics, nullptr);
        EXPECT_GT(metrics->size(), 0u);
        for (const auto &[key, value] : metrics->members()) {
            EXPECT_FALSE(key.empty());
            ASSERT_TRUE(value.isNumber()) << key;
            EXPECT_TRUE(std::isfinite(value.asNumber())) << key;
        }
    }
    const JsonValue *speedups = doc.find("speedups");
    ASSERT_NE(speedups, nullptr);
    ASSERT_EQ(speedups->size(), 1u);
    EXPECT_NEAR(speedups->find("canneal F/F+M")->asNumber(), 1.31,
                1e-12);
}

TEST(BenchReport, NonFiniteMetricSurfacesAsNullNotGarbage)
{
    BenchReport report("bad_metric");
    report.addRun("r").metric("oops", std::nan(""));
    JsonValue doc = roundTrip(report);
    const JsonValue *metrics = doc.find("runs")->at(0).find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_NE(metrics->find("oops"), nullptr);
    EXPECT_EQ(metrics->find("oops")->kind(), JsonValue::Kind::Null);
}

TEST(BenchReport, WritesFileNamedAfterBenchAndRoundTrips)
{
    // Route the output into the test's working directory explicitly so
    // parallel ctest shards can't collide.
    std::string dir = ::testing::TempDir();
    ASSERT_EQ(setenv("MITOSIM_BENCH_DIR", dir.c_str(), 1), 0);
    BenchReport report = sampleReport();
    EXPECT_EQ(report.outputPath(),
              (dir.back() == '/' ? dir : dir + '/') +
                  "BENCH_fig99_sample.json");
    ASSERT_TRUE(report.write());
    std::ifstream in(report.outputPath());
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    auto doc = parseJson(text.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("bench")->asString(), "fig99_sample");
    EXPECT_EQ(doc->find("runs")->size(), 2u);
    ASSERT_EQ(unsetenv("MITOSIM_BENCH_DIR"), 0);
    std::remove(report.outputPath().c_str());
}

TEST(BenchReport, WriteFailureReturnsFalse)
{
    ASSERT_EQ(setenv("MITOSIM_BENCH_DIR", "/nonexistent/dir", 1), 0);
    BenchReport report("unwritable");
    EXPECT_FALSE(report.write());
    ASSERT_EQ(unsetenv("MITOSIM_BENCH_DIR"), 0);
}

/// @}

} // namespace
} // namespace mitosim::bench
