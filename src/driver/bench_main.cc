#include "bench_main.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/logging.h"
#include "src/driver/runner.h"

namespace mitosim::driver
{

namespace
{

void
printUsage(std::FILE *to, const char *prog)
{
    std::fprintf(
        to,
        "usage: %s [options]\n"
        "\n"
        "  --list            print every job name and exit\n"
        "  --filter=<regex>  run only jobs whose name matches (regex\n"
        "                    search, or literal substring — a name\n"
        "                    pasted from --list always works); a\n"
        "                    partial selection emits a generic per-job\n"
        "                    metric listing instead of the bench's\n"
        "                    table\n"
        "  --jobs=N          worker threads (default: $MITOSIM_JOBS,\n"
        "                    else hardware concurrency)\n"
        "  --help            this message\n"
        "\n"
        "Jobs are independent config points (each simulates a private\n"
        "machine), so the thread count cannot change reported numbers;\n"
        "results are always emitted in registration order.\n",
        prog);
}

/**
 * Per-job listing for partial --filter selections, where the bench's
 * own table (which normalizes across jobs) is not well-defined.
 */
void
emitGeneric(const JobRegistry &registry,
            const std::vector<std::optional<JobResult>> &results,
            const std::vector<std::size_t> &selected,
            bench::BenchReport &report)
{
    for (std::size_t index : selected) {
        const Job &job = registry.job(index);
        const JobResult &res = *results[index];
        bench::BenchRun &run = report.addRun(job.name);
        run.tag("job", job.name);
        std::printf("%s:\n", job.name.c_str());
        if (res.outcome) {
            std::printf("  runtime_cycles=%llu walk_fraction=%.4f "
                        "remote_pt_fraction=%.4f\n",
                        static_cast<unsigned long long>(
                            res.outcome->runtime),
                        res.outcome->walkFraction(),
                        res.outcome->remotePtFraction());
            run.metric("runtime_cycles",
                       static_cast<double>(res.outcome->runtime));
            run.metric("walk_fraction", res.outcome->walkFraction());
            run.metric("remote_pt_fraction",
                       res.outcome->remotePtFraction());
        }
        for (const auto &[key, value] : res.values) {
            std::printf("  %s=%g\n", key.c_str(), value);
            run.metric(key, value);
        }
        if (!res.text.empty())
            std::printf("%s", res.text.c_str());
    }
}

} // namespace

std::optional<BenchOptions>
parseBenchArgs(int argc, char *const *argv, std::string &error)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            opts.help = true;
        } else if (!std::strcmp(arg, "--list")) {
            opts.list = true;
        } else if (!std::strncmp(arg, "--filter=", 9)) {
            opts.filter = arg + 9;
        } else if (!std::strncmp(arg, "--jobs=", 7)) {
            char *end = nullptr;
            long n = std::strtol(arg + 7, &end, 10);
            if (!end || *end != '\0' || n <= 0) {
                error = format("--jobs wants a positive integer, got "
                               "'%s'",
                               arg + 7);
                return std::nullopt;
            }
            opts.jobs = static_cast<unsigned>(n);
        } else {
            error = format("unknown option '%s'", arg);
            return std::nullopt;
        }
    }
    return opts;
}

int
benchMain(int argc, char **argv, const BenchSpec &spec)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    std::string error;
    auto opts = parseBenchArgs(argc, argv, error);
    if (!opts) {
        std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
        printUsage(stderr, prog);
        return 2;
    }
    if (opts->help) {
        printUsage(stdout, prog);
        return 0;
    }

    setInformEnabled(false);
    try {
        JobRegistry registry;
        spec.registerJobs(registry);

        if (opts->list) {
            for (const Job &job : registry.jobs())
                std::printf("%s\n", job.name.c_str());
            return 0;
        }

        auto selected = selectJobs(registry, opts->filter);
        if (selected.empty()) {
            std::fprintf(stderr,
                         "%s: --filter='%s' matched 0 of %zu jobs "
                         "(--list shows them)\n",
                         prog, opts->filter.c_str(), registry.size());
            return 2;
        }

        Runner runner(opts->jobs);
        if (!spec.title.empty())
            std::printf("\n=== %s ===\n", spec.title.c_str());
        std::printf("[driver] %zu job(s) on %u thread(s)\n",
                    selected.size(),
                    static_cast<unsigned>(std::min<std::size_t>(
                        runner.threads(), selected.size())));
        auto wall0 = std::chrono::steady_clock::now();
        auto results = runner.run(registry, selected);
        double total_wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall0)
                .count();

        bench::BenchReport report(spec.name);
        if (spec.describe)
            spec.describe(report);
        // Host telemetry, outside "metrics" (see report.h): per-job
        // thunk wall-clock and thread CPU time (with the
        // populate/run/report phase split when the job stamped one),
        // the job's simulated access count and resulting host ops/sec,
        // plus this invocation's total.
        // Recorded before emit() moves the results out.
        for (std::size_t index : selected) {
            const JobResult &res = *results[index];
            std::uint64_t sim_accesses =
                res.outcome ? res.outcome->totals.accesses : 0;
            report.wallMsPhases(
                registry.job(index).name,
                {res.wallMs, res.wallPopulateMs, res.wallRunMs},
                {res.cpuMs, res.cpuPopulateMs, res.cpuRunMs}, sim_accesses);
        }
        report.wallMs("total", total_wall_ms);
        // Host-side hot-path telemetry (fused replay, table arena):
        // appended into the per-job wall_ms entries written above, so
        // it rides the section already excluded from comparisons.
        for (std::size_t index : selected) {
            for (const auto &[key, value] : results[index]->host)
                report.wallMsHostStat(registry.job(index).name, key, value);
        }
        // Observability: flattened metrics registry + walk-cycle
        // attribution into the "metrics" section, which report
        // comparisons check like the per-run metrics.
        for (std::size_t index : selected) {
            for (const auto &[key, value] : results[index]->metrics)
                report.metricStat(registry.job(index).name, key, value);
        }
        if (selected.size() == registry.size()) {
            std::vector<JobResult> full;
            full.reserve(results.size());
            for (auto &res : results)
                full.push_back(std::move(*res));
            spec.emit(full, report);
        } else {
            report.config("filter", opts->filter);
            emitGeneric(registry, results, selected, report);
        }
        if (!report.write())
            return 1;
        std::printf("\n[report] %s\n", report.outputPath().c_str());
        return 0;
    } catch (const SimError &) {
        // panic()/fatal() already printed the message.
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", prog, e.what());
        return 1;
    }
}

} // namespace mitosim::driver
