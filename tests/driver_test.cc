/**
 * @file
 * Tests for the parallel experiment runner (src/driver): the job
 * registry, filter/ordering semantics, the thread pool, and the shared
 * benchMain entry point. The load-bearing property is determinism —
 * --jobs=1 and --jobs=8 must produce identical RunOutcomes and
 * byte-identical BENCH_<name>.json, because results are collected at
 * their registration index no matter which worker finishes first.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/driver/bench_main.h"
#include "src/driver/runner.h"

namespace mitosim::driver
{
namespace
{

/// @name Fixtures
/// @{

/**
 * Point $MITOSIM_BENCH_DIR at a fresh temp directory for one test so
 * benchMain's report lands somewhere inspectable, restoring the prior
 * environment on destruction.
 */
class TempBenchDir
{
  public:
    TempBenchDir()
    {
        char tmpl[] = "/tmp/mitosim_driver_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        dir_ = dir ? dir : "/tmp";
        if (const char *prev = std::getenv("MITOSIM_BENCH_DIR")) {
            had_ = true;
            prev_ = prev;
        }
        ::setenv("MITOSIM_BENCH_DIR", dir_.c_str(), 1);
    }

    ~TempBenchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
        if (had_)
            ::setenv("MITOSIM_BENCH_DIR", prev_.c_str(), 1);
        else
            ::unsetenv("MITOSIM_BENCH_DIR");
    }

    std::string
    read(const std::string &file) const
    {
        std::ifstream in(dir_ + "/" + file);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

  private:
    std::string dir_;
    std::string prev_;
    bool had_ = false;
};

int
runBenchMain(const BenchSpec &spec,
             const std::vector<std::string> &flags)
{
    std::vector<std::string> args;
    args.emplace_back("driver_test_bench");
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return benchMain(static_cast<int>(argv.size()), argv.data(), spec);
}

/**
 * A real (but small) simulation job: single-threaded random accesses on
 * a 2-socket machine, page-tables optionally stranded on the remote
 * socket. Deterministic given the seed, and heavy enough that parallel
 * workers genuinely overlap machine construction and simulation.
 */
JobResult
tinySimJob(bool remote_pt, std::uint64_t seed)
{
    sim::MachineConfig mc;
    mc.topo.numSockets = 2;
    mc.topo.coresPerSocket = 1;
    mc.topo.memPerSocket = 64ull << 20;
    mc.hier.l3BytesPerSocket = 16ull << 10;
    sim::Machine machine(mc);
    core::MitosisBackend backend(machine.physmem());
    os::Kernel kernel(machine, backend);
    os::Process &proc = kernel.createProcess("tiny", 0);
    kernel.setDataPolicy(proc, os::DataPolicy::Fixed, 0);
    kernel.setPtPlacement(proc, pt::PtPlacement::Fixed,
                          remote_pt ? 1 : 0);

    os::ExecContext ctx(kernel, proc);
    int tid = ctx.addThread(0);

    auto region = kernel.mmap(proc, 8ull << 20,
                              os::MmapOptions{.populate = true});
    Rng rng(seed);
    std::uint64_t pages = region.length / PageSize;
    for (int i = 0; i < 2000; ++i) {
        VirtAddr va = region.start + rng.below(pages) * PageSize +
                      rng.below(PageSize / 8) * 8;
        ctx.access(tid, va, (i & 7) == 0);
    }

    RunOutcome out;
    out.runtime = ctx.runtime();
    out.totals = ctx.totals();
    kernel.destroyProcess(proc);
    JobResult result = JobResult::of(out);
    // Simulated telemetry lands in the report's "metrics" section
    // (excluded from metric comparisons, like wall_ms) — deterministic,
    // so serial and parallel runs must still emit it identically.
    result.metricStat("sched_enqueues",
                      static_cast<double>(
                          kernel.scheduler().stats().enqueues));
    result.metricStat("check_violations", 0.0);
    return result;
}

/** The tiny matrix: 2 placements x 2 seeds, all real simulations. */
void
registerTinyMatrix(JobRegistry &registry)
{
    for (bool remote_pt : {false, true}) {
        for (std::uint64_t seed : {7ull, 21ull}) {
            std::string name = std::string("tiny/") +
                               (remote_pt ? "remote-pt" : "local-pt") +
                               "/seed" + std::to_string(seed);
            registry.add(name, [remote_pt, seed] {
                return tinySimJob(remote_pt, seed);
            });
        }
    }
}

BenchSpec
tinySpec()
{
    BenchSpec spec;
    spec.name = "driver_tiny";
    spec.registerJobs = registerTinyMatrix;
    spec.emit = [](const std::vector<JobResult> &results,
                   bench::BenchReport &report) {
        double base = results[0].runtime();
        std::size_t i = 0;
        for (bool remote_pt : {false, true}) {
            for (std::uint64_t seed : {7ull, 21ull}) {
                std::string label =
                    std::string(remote_pt ? "remote" : "local") +
                    " seed" + std::to_string(seed);
                bench::recordOutcome(report, label, results[i++], base)
                    .tag("pt", remote_pt ? "remote" : "local");
            }
        }
        report.speedup("remote/local",
                       results[2].runtime() / results[0].runtime());
    };
    return spec;
}

/** Synthetic instant jobs for CLI-semantics tests. */
BenchSpec
syntheticSpec(std::atomic<int> *executions = nullptr)
{
    BenchSpec spec;
    spec.name = "driver_synth";
    spec.registerJobs = [executions](JobRegistry &registry) {
        for (const char *name : {"alpha", "beta/one", "beta/two"}) {
            std::string job = name;
            registry.add(job, [job, executions] {
                if (executions)
                    ++*executions;
                JobResult result;
                result.value("name_len",
                             static_cast<double>(job.size()));
                return result;
            });
        }
    };
    spec.emit = [](const std::vector<JobResult> &results,
                   bench::BenchReport &report) {
        for (std::size_t i = 0; i < results.size(); ++i)
            report.addRun("emitted" + std::to_string(i))
                .metric("name_len", results[i].valueOf("name_len"));
    };
    return spec;
}

/// @}
/// @name Registry + selection semantics
/// @{

TEST(DriverRegistry, RegistersInOrderAndRejectsDuplicates)
{
    JobRegistry registry;
    EXPECT_EQ(registry.add("a", [] { return JobResult(); }), 0u);
    EXPECT_EQ(registry.add("b", [] { return JobResult(); }), 1u);
    EXPECT_EQ(registry.job(1).name, "b");
    EXPECT_THROW(registry.add("a", [] { return JobResult(); }),
                 SimError);
}

TEST(DriverRegistry, SelectJobsFiltersByRegexInRegistrationOrder)
{
    JobRegistry registry;
    registry.add("canneal/F", [] { return JobResult(); });
    registry.add("canneal/F+M", [] { return JobResult(); });
    registry.add("btree/F", [] { return JobResult(); });

    EXPECT_EQ(selectJobs(registry, ""),
              (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(selectJobs(registry, "canneal"),
              (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(selectJobs(registry, "/F$"),
              (std::vector<std::size_t>{0, 2}));
    EXPECT_TRUE(selectJobs(registry, "redis").empty());
    EXPECT_THROW(selectJobs(registry, "("), SimError);

    // A job name pasted verbatim from --list must select its job even
    // though names contain regex metacharacters ('+').
    EXPECT_EQ(selectJobs(registry, "canneal/F+M"),
              (std::vector<std::size_t>{1}));
}

/// @}
/// @name Determinism: thread count must not change results
/// @{

TEST(DriverRunner, ParallelOutcomesMatchSerial)
{
    JobRegistry registry;
    registerTinyMatrix(registry);
    auto all = selectJobs(registry, "");

    auto serial = Runner(1).run(registry, all);
    auto parallel = Runner(8).run(registry, all);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].has_value());
        ASSERT_TRUE(parallel[i].has_value());
        const RunOutcome &a = *serial[i]->outcome;
        const RunOutcome &b = *parallel[i]->outcome;
        EXPECT_EQ(a.runtime, b.runtime);
        EXPECT_EQ(a.totals.cycles, b.totals.cycles);
        EXPECT_EQ(a.totals.walkCycles, b.totals.walkCycles);
        EXPECT_EQ(a.totals.accesses, b.totals.accesses);
        EXPECT_EQ(a.totals.tlbMisses, b.totals.tlbMisses);
        EXPECT_EQ(a.totals.ptDramRemote, b.totals.ptDramRemote);
        EXPECT_EQ(a.totals.pageFaults, b.totals.pageFaults);
    }
}

TEST(DriverBenchMain, JobsFlagProducesIdenticalMetrics)
{
    std::string serial;
    std::string parallel;
    {
        TempBenchDir dir;
        ASSERT_EQ(runBenchMain(tinySpec(), {"--jobs=1"}), 0);
        serial = dir.read("BENCH_driver_tiny.json");
    }
    {
        TempBenchDir dir;
        ASSERT_EQ(runBenchMain(tinySpec(), {"--jobs=8"}), 0);
        parallel = dir.read("BENCH_driver_tiny.json");
    }
    ASSERT_FALSE(serial.empty());

    // Every section except the host-telemetry "wall_ms" must be deeply
    // identical: thread count cannot change simulated results. wall_ms
    // is the one legitimate difference between the two files — the
    // "metrics" section is simulated (deterministic) telemetry, so it
    // is compared here even though metric-diffing tools skip it.
    auto a = bench::parseJson(serial);
    auto b = bench::parseJson(parallel);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    for (const char *key : {"schema_version", "bench", "config", "runs",
                            "speedups", "metrics"}) {
        const bench::JsonValue *va = a->find(key);
        const bench::JsonValue *vb = b->find(key);
        ASSERT_NE(va, nullptr) << key;
        ASSERT_NE(vb, nullptr) << key;
        EXPECT_TRUE(*va == *vb) << key;
    }
    const bench::JsonValue *runs = a->find("runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->size(), 4u);

    // wall_ms carries one entry per job plus the total, in both modes.
    for (const auto *doc : {&*a, &*b}) {
        const bench::JsonValue *wall = doc->find("wall_ms");
        ASSERT_NE(wall, nullptr);
        EXPECT_EQ(wall->size(), 5u); // 4 jobs + "total"
        const bench::JsonValue *total = wall->find("total");
        ASSERT_NE(total, nullptr);
        EXPECT_GT(total->asNumber(), 0.0);
        EXPECT_NE(wall->find("tiny/remote-pt/seed21"), nullptr);

        // The driver grouped each job's metricStat()s under its name.
        const bench::JsonValue *metrics = doc->find("metrics");
        ASSERT_NE(metrics, nullptr);
        EXPECT_EQ(metrics->size(), 4u); // one object per job
        const bench::JsonValue *job =
            metrics->find("tiny/remote-pt/seed21");
        ASSERT_NE(job, nullptr);
        ASSERT_NE(job->find("sched_enqueues"), nullptr);
        EXPECT_EQ(job->find("sched_enqueues")->asNumber(), 1.0);
        ASSERT_NE(job->find("check_violations"), nullptr);
        EXPECT_EQ(job->find("check_violations")->asNumber(), 0.0);
    }
}

/**
 * A checked, time-shared job whose stats go through the harness sink:
 * its scheduler and vmcheck counters must reach the report through the
 * one "metrics" channel, never as side sections of their own.
 */
TEST(DriverBenchMain, CheckedTimeSharedJobReportsThroughMetricsOnly)
{
    BenchSpec spec;
    spec.name = "driver_checked";
    spec.registerJobs = [](JobRegistry &registry) {
        registry.add("checked/time-shared", [] {
            sim::MachineConfig mc;
            mc.topo.numSockets = 2;
            mc.topo.coresPerSocket = 1;
            mc.topo.memPerSocket = 64ull << 20;
            sim::Machine machine(mc);
            core::MitosisBackend backend(machine.physmem());
            os::KernelConfig kcfg;
            kcfg.sched.timeShared = true;
            kcfg.check.enabled = true;
            os::Kernel kernel(machine, backend, kcfg);
            os::Process &proc = kernel.createProcess("checked", 0);
            os::ExecContext ctx(kernel, proc);
            int tid = ctx.addThread(1);
            auto region = kernel.mmap(proc, 2ull << 20,
                                      os::MmapOptions{.populate = true});
            for (VirtAddr off = 0; off < region.length; off += PageSize)
                ctx.access(tid, region.start + off, false);
            RunOutcome out;
            out.runtime = ctx.runtime();
            out.totals = ctx.totals();
            kernel.finalizeProcess(proc);
            JobResult result = JobResult::of(out);
            bench::recordJobStats(kernel, result);
            return result;
        });
    };
    spec.emit = [](const std::vector<JobResult> &results,
                   bench::BenchReport &report) {
        bench::recordOutcome(report, "checked", results[0]);
    };

    TempBenchDir dir;
    ASSERT_EQ(runBenchMain(spec, {}), 0);
    auto doc = bench::parseJson(dir.read("BENCH_driver_checked.json"));
    ASSERT_TRUE(doc.has_value());
    for (const char *gone : {"scheduler", "thp", "check"})
        EXPECT_EQ(doc->find(gone), nullptr) << gone;

    const bench::JsonValue *metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    const bench::JsonValue *job = metrics->find("checked/time-shared");
    ASSERT_NE(job, nullptr);
    ASSERT_NE(job->find("sched_enqueues"), nullptr);
    EXPECT_EQ(job->find("sched_enqueues")->asNumber(), 1.0);
    ASSERT_NE(job->find("check_violations"), nullptr);
    EXPECT_EQ(job->find("check_violations")->asNumber(), 0.0);
    ASSERT_NE(job->find("check_checkpoints"), nullptr);
    EXPECT_GT(job->find("check_checkpoints")->asNumber(), 0.0);
}

/// @}
/// @name benchMain CLI semantics
/// @{

TEST(DriverBenchMain, ListPrintsWithoutExecutingJobs)
{
    std::atomic<int> executions{0};
    EXPECT_EQ(runBenchMain(syntheticSpec(&executions), {"--list"}), 0);
    EXPECT_EQ(executions.load(), 0);
}

TEST(DriverBenchMain, PartialFilterEmitsSelectedJobsInOrder)
{
    TempBenchDir dir;
    ASSERT_EQ(runBenchMain(syntheticSpec(), {"--filter=beta"}), 0);
    auto doc = bench::parseJson(dir.read("BENCH_driver_synth.json"));
    ASSERT_TRUE(doc.has_value());

    // The generic per-job listing, not the bench's emit (whose labels
    // start with "emitted"), and only the matching jobs, in order.
    const bench::JsonValue *runs = doc->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 2u);
    EXPECT_EQ(runs->at(0).find("label")->asString(), "beta/one");
    EXPECT_EQ(runs->at(1).find("label")->asString(), "beta/two");
    const bench::JsonValue *filter =
        doc->find("config")->find("filter");
    ASSERT_NE(filter, nullptr);
    EXPECT_EQ(filter->asString(), "beta");
}

TEST(DriverBenchMain, FilterMatchingEverythingUsesBenchEmit)
{
    TempBenchDir dir;
    ASSERT_EQ(runBenchMain(syntheticSpec(), {"--filter=."}), 0);
    auto doc = bench::parseJson(dir.read("BENCH_driver_synth.json"));
    ASSERT_TRUE(doc.has_value());
    const bench::JsonValue *runs = doc->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 3u);
    EXPECT_EQ(runs->at(0).find("label")->asString(), "emitted0");
}

TEST(DriverBenchMain, FilterMatchingNothingFailsUsage)
{
    EXPECT_EQ(runBenchMain(syntheticSpec(), {"--filter=nomatch"}), 2);
}

TEST(DriverBenchMain, MalformedFlagsFailUsage)
{
    EXPECT_EQ(runBenchMain(syntheticSpec(), {"--jobs=0"}), 2);
    EXPECT_EQ(runBenchMain(syntheticSpec(), {"--jobs=abc"}), 2);
    EXPECT_EQ(runBenchMain(syntheticSpec(), {"--bogus"}), 2);
}

TEST(DriverBenchMain, HelpExitsCleanly)
{
    EXPECT_EQ(runBenchMain(syntheticSpec(), {"--help"}), 0);
}

/// @}
/// @name Failure propagation
/// @{

TEST(DriverBenchMain, ThrowingJobFailsBinaryWithoutHangingPool)
{
    BenchSpec spec;
    spec.name = "driver_throw";
    std::atomic<int> survivors{0};
    spec.registerJobs = [&survivors](JobRegistry &registry) {
        registry.add("ok/before", [&survivors] {
            ++survivors;
            return JobResult();
        });
        registry.add("boom", []() -> JobResult {
            panic("intentional test failure");
        });
        registry.add("ok/after", [&survivors] {
            ++survivors;
            return JobResult();
        });
    };
    spec.emit = [](const std::vector<JobResult> &,
                   bench::BenchReport &) {
        FAIL() << "emit must not run after a job failure";
    };
    EXPECT_EQ(runBenchMain(spec, {"--jobs=4"}), 1);
    // The pool drained the remaining jobs instead of deadlocking.
    EXPECT_EQ(survivors.load(), 2);
}

/// @}
/// @name Worker-count resolution
/// @{

TEST(DriverRunner, DefaultThreadsHonorsEnvironment)
{
    const char *prev = std::getenv("MITOSIM_JOBS");
    std::string saved = prev ? prev : "";

    ::setenv("MITOSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultThreads(), 3u);
    EXPECT_EQ(Runner(0).threads(), 3u);
    EXPECT_EQ(Runner(5).threads(), 5u); // explicit flag wins

    ::setenv("MITOSIM_JOBS", "garbage", 1);
    EXPECT_GE(defaultThreads(), 1u);

    if (prev)
        ::setenv("MITOSIM_JOBS", saved.c_str(), 1);
    else
        ::unsetenv("MITOSIM_JOBS");
}

/// @}

} // namespace
} // namespace mitosim::driver
