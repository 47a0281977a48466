/**
 * @file
 * Shared entry point for every bench binary. A main() reduces to
 *
 *   int main(int argc, char **argv)
 *   {
 *       driver::BenchSpec spec;
 *       spec.name = "...";            // -> BENCH_<name>.json
 *       spec.registerJobs = ...;      // populate the JobRegistry
 *       spec.emit = ...;              // table printing + report rows
 *       return driver::benchMain(argc, argv, spec);
 *   }
 *
 * benchMain owns the command line (--list, --filter=<regex>, --jobs=N,
 * --help), the parallel Runner, and the report write. emit() only runs
 * when every registered job executed (so cross-job normalization is
 * always well-defined); under a partial --filter the driver instead
 * emits a generic per-job metric listing, which is how any single
 * config point is re-run in isolation.
 *
 * Exit codes: 0 success; 1 when any job aborts (panic/fatal/throw) or
 * the report cannot be written; 2 on a bad command line or a filter
 * matching nothing.
 */

#ifndef MITOSIM_DRIVER_BENCH_MAIN_H
#define MITOSIM_DRIVER_BENCH_MAIN_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/driver/job.h"

namespace mitosim::driver
{

/** What a bench binary declares instead of a hand-rolled main(). */
struct BenchSpec
{
    std::string name;  //!< report name: BENCH_<name>.json
    std::string title; //!< banner printed before results (empty: none)
    std::function<void(JobRegistry &)> registerJobs;
    /** Config section of the report (machine shape etc.); optional. */
    std::function<void(bench::BenchReport &)> describe;
    /**
     * Print the paper-style table and fill the report from the full,
     * registration-ordered result vector. Only called when every job
     * ran (no filter, or a filter matching everything).
     */
    std::function<void(const std::vector<JobResult> &,
                       bench::BenchReport &)>
        emit;
};

/** Parsed command line of a bench binary. */
struct BenchOptions
{
    bool help = false;
    bool list = false;
    std::string filter;
    unsigned jobs = 0; //!< 0 = defaultThreads()
};

/** nullopt + @p error message on a malformed command line. */
std::optional<BenchOptions> parseBenchArgs(int argc, char *const *argv,
                                           std::string &error);

/** Run @p spec under the flags in argv; returns the process exit code. */
int benchMain(int argc, char **argv, const BenchSpec &spec);

} // namespace mitosim::driver

#endif // MITOSIM_DRIVER_BENCH_MAIN_H
