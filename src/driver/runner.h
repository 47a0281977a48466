/**
 * @file
 * The parallel experiment runner. Jobs are embarrassingly parallel —
 * each constructs a private Machine + Kernel — so the Runner drains the
 * registry through a work queue on a pool of std::jthread workers.
 * Results land at their job's registration index, making collection
 * order (and therefore every table and BENCH_*.json byte) independent
 * of the thread count.
 */

#ifndef MITOSIM_DRIVER_RUNNER_H
#define MITOSIM_DRIVER_RUNNER_H

#include <optional>
#include <vector>

#include "src/driver/job.h"

namespace mitosim::driver
{

/**
 * Worker count to use when none was requested: $MITOSIM_JOBS when set
 * (fatal unless a positive integer), else
 * std::thread::hardware_concurrency() (minimum 1).
 */
unsigned defaultThreads();

class Runner
{
  public:
    /** @p threads 0 resolves to defaultThreads(). */
    explicit Runner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Execute the @p selected jobs (registration indices). Returns one
     * slot per registered job; unselected slots stay nullopt. A
     * throwing job never hangs the pool: the worker captures the
     * failure, remaining jobs still run, and after the pool drains the
     * Runner warn()s every failure and throws SimError("fatal") so the
     * binary exits nonzero.
     */
    std::vector<std::optional<JobResult>>
    run(const JobRegistry &registry,
        const std::vector<std::size_t> &selected) const;

  private:
    unsigned threads_;
};

} // namespace mitosim::driver

#endif // MITOSIM_DRIVER_RUNNER_H
