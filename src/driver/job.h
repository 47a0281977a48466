/**
 * @file
 * Declarative experiment jobs. A benchmark is a *matrix* of independent
 * configuration points; each point is a Job — a unique name plus a
 * thunk that constructs its own Machine + Kernel, simulates, and hands
 * back a JobResult. Bench binaries populate a JobRegistry instead of
 * hand-rolling matrix loops; the Runner (runner.h) executes registered
 * jobs on a host thread pool, and results are always collected and
 * emitted in registration order, so parallelism can never change
 * reported numbers.
 */

#ifndef MITOSIM_DRIVER_JOB_H
#define MITOSIM_DRIVER_JOB_H

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/sim/perf_counters.h"

namespace mitosim::driver
{

/** Aggregate counters + runtime of one simulated configuration point. */
struct RunOutcome
{
    Cycles runtime = 0;
    sim::PerfCounters totals;

    double walkFraction() const { return totals.walkFraction(); }
    double remotePtFraction() const { return totals.remotePtFraction(); }
};

/**
 * Everything a job hands back: the scenario outcome (when the job is a
 * timed run), named analysis scalars, and optional free-form text
 * (e.g. a page-table dump). All three are optional so placement
 * analyses, micro-measurements and full runs share one result type.
 */
struct JobResult
{
    std::optional<RunOutcome> outcome;
    std::vector<std::pair<std::string, double>> values;
    std::string text;

    /**
     * Host wall-clock of the job's thunk, stamped by the Runner. Pure
     * host-side telemetry (machine construction + simulation + op
     * phases): it lands in the report's "wall_ms" section, never in
     * "metrics", and is excluded from metric comparisons — simulated
     * numbers must stay independent of host speed and thread count.
     */
    double wallMs = 0.0;

    /**
     * Host wall-clock phase breakdown, stamped by the job body itself
     * (bench::PhaseTimer): time spent building + populating the
     * simulated machine (construction, fragmentation, process setup,
     * replication) and time spent running simulated operations. The
     * remainder of wallMs is the report phase (teardown, end-of-run
     * checks, analysis). Same contract as wallMs: host telemetry,
     * excluded from metric comparisons. Zero when a job never stamps
     * phases.
     */
    double wallPopulateMs = 0.0;
    double wallRunMs = 0.0;

    /**
     * The same three spans in CPU time of the thread that ran the job
     * (threadCpuMs): the Runner stamps cpuMs, bench::PhaseTimer the
     * phases. Unlike wall-clock, CPU time leaves out the time the job
     * waited for a core. Host telemetry like wallMs.
     */
    double cpuMs = 0.0;
    double cpuPopulateMs = 0.0;
    double cpuRunMs = 0.0;

    JobResult &
    value(std::string key, double v)
    {
        values.emplace_back(std::move(key), v);
        return *this;
    }

    /**
     * Host-side hot-path telemetry (fused replay runs/ops, table-arena
     * slab activity) recorded by jobs that ran through the bench
     * harness. Unlike `metrics` this is *not* simulated state — it
     * varies with MITOSIM_FUSE and snapshot reuse — so it lands inside
     * the report's "wall_ms" section (excluded wholesale from metric
     * comparisons) rather than a section of its own.
     */
    std::vector<std::pair<std::string, double>> host;

    /**
     * Observability metrics (src/obs): the job machine's flattened
     * MetricsRegistry — named counters/gauges/histogram digests plus
     * the walk-cycle attribution table — and, on checked runs, the
     * vmcheck counters (check_*), recorded by the bench harness's
     * stat sink. The job's only simulated-telemetry channel:
     * deterministic, landed in the report's "metrics" section, which
     * report comparisons check like the per-run metrics (only
     * "wall_ms" is excluded).
     */
    std::vector<std::pair<std::string, double>> metrics;

    JobResult &
    hostStat(std::string key, double v)
    {
        host.emplace_back(std::move(key), v);
        return *this;
    }

    JobResult &
    metricStat(std::string key, double v)
    {
        metrics.emplace_back(std::move(key), v);
        return *this;
    }

    /** Named scalar lookup; fatal()s when @p key was never recorded. */
    double valueOf(const std::string &key) const;

    static JobResult
    of(const RunOutcome &out)
    {
        JobResult r;
        r.outcome = out;
        return r;
    }

    /** The outcome's runtime as a double (fatal() when not a run). */
    double runtime() const;
};

/** One config point: a unique name plus the thunk that simulates it. */
struct Job
{
    std::string name;
    std::function<JobResult()> run;
};

/**
 * Registration-ordered set of jobs. Bench binaries populate it
 * declaratively; job names must be unique (they are the --filter and
 * --list handles for re-running any single config point).
 */
class JobRegistry
{
  public:
    /** Register a job; returns its index (== emission position). */
    std::size_t add(std::string name, std::function<JobResult()> run);

    std::size_t size() const { return jobs_.size(); }
    const Job &job(std::size_t index) const { return jobs_.at(index); }
    const std::vector<Job> &jobs() const { return jobs_; }

  private:
    std::vector<Job> jobs_;
};

/**
 * Indices of jobs whose name matches @p filter — as an ECMAScript
 * regex (search semantics) or as a literal substring, so a job name
 * pasted from --list always selects its job even though names contain
 * metacharacters ("canneal/F+M") — in registration order. An empty
 * filter selects every job; an invalid regex is fatal().
 */
std::vector<std::size_t> selectJobs(const JobRegistry &registry,
                                    const std::string &filter);

/** CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID), ms. */
double threadCpuMs();

} // namespace mitosim::driver

#endif // MITOSIM_DRIVER_JOB_H
