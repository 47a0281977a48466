#include "runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>

#include "src/base/logging.h"

namespace mitosim::driver
{

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("MITOSIM_JOBS"); env && *env) {
        char *end = nullptr;
        long n = std::strtol(env, &end, 10);
        if (end && *end == '\0' && n > 0)
            return static_cast<unsigned>(n);
        fatal("MITOSIM_JOBS: invalid value '%s' (want a positive integer)",
              env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

Runner::Runner(unsigned threads)
    : threads_(threads ? threads : defaultThreads())
{
}

std::vector<std::optional<JobResult>>
Runner::run(const JobRegistry &registry,
            const std::vector<std::size_t> &selected) const
{
    std::vector<std::optional<JobResult>> results(registry.size());
    // Indexed by queue position, not job index: workers only ever touch
    // their own slot, so no synchronization beyond the queue cursor.
    std::vector<std::string> failures(selected.size());
    std::vector<char> failed(selected.size(), 0);
    std::atomic<std::size_t> next{0};

    auto worker = [&] {
        for (;;) {
            std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= selected.size())
                return;
            const Job &job = registry.job(selected[k]);
            setLogThreadTag(job.name);
            try {
                auto t0 = std::chrono::steady_clock::now();
                double cpu0 = threadCpuMs();
                results[selected[k]] = job.run();
                results[selected[k]]->cpuMs = threadCpuMs() - cpu0;
                results[selected[k]]->wallMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            } catch (const std::exception &e) {
                failed[k] = 1;
                failures[k] = e.what();
            } catch (...) {
                failed[k] = 1;
                failures[k] = "unknown exception";
            }
            setLogThreadTag("");
        }
    };

    std::size_t pool = std::min<std::size_t>(threads_, selected.size());
    if (pool <= 1) {
        worker(); // strictly serial --jobs=1: no threads to debug around
    } else {
        std::vector<std::jthread> workers;
        workers.reserve(pool);
        for (std::size_t t = 0; t < pool; ++t)
            workers.emplace_back(worker);
        // jthreads join on scope exit.
    }

    std::size_t nfailed = 0;
    std::string first;
    for (std::size_t k = 0; k < selected.size(); ++k) {
        if (!failed[k])
            continue;
        const Job &job = registry.job(selected[k]);
        warn("job '%s' failed: %s", job.name.c_str(),
             failures[k].c_str());
        if (nfailed++ == 0)
            first = job.name + ": " + failures[k];
    }
    if (nfailed) {
        fatal("%zu of %zu jobs failed; first: %s", nfailed,
              selected.size(), first.c_str());
    }
    return results;
}

} // namespace mitosim::driver
