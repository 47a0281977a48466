#include "job.h"

#include <ctime>
#include <regex>

#include "src/base/logging.h"

namespace mitosim::driver
{

double
JobResult::valueOf(const std::string &key) const
{
    for (const auto &[k, v] : values)
        if (k == key)
            return v;
    fatal("job result has no value '%s'", key.c_str());
}

double
JobResult::runtime() const
{
    if (!outcome)
        fatal("job result has no run outcome");
    return static_cast<double>(outcome->runtime);
}

std::size_t
JobRegistry::add(std::string name, std::function<JobResult()> run)
{
    for (const Job &job : jobs_)
        if (job.name == name)
            fatal("duplicate job name '%s'", name.c_str());
    jobs_.push_back(Job{std::move(name), std::move(run)});
    return jobs_.size() - 1;
}

std::vector<std::size_t>
selectJobs(const JobRegistry &registry, const std::string &filter)
{
    std::vector<std::size_t> selected;
    if (filter.empty()) {
        for (std::size_t i = 0; i < registry.size(); ++i)
            selected.push_back(i);
        return selected;
    }
    std::regex re;
    try {
        re = std::regex(filter);
    } catch (const std::regex_error &e) {
        fatal("invalid --filter regex '%s': %s", filter.c_str(),
              e.what());
    }
    // Job names use regex metacharacters ("canneal/F+M"), and --list
    // presents them as the re-run handles — so a pasted name must
    // select its job. Literal substring containment is accepted
    // alongside the regex match.
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const std::string &name = registry.job(i).name;
        if (std::regex_search(name, re) ||
            name.find(filter) != std::string::npos)
            selected.push_back(i);
    }
    return selected;
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

} // namespace mitosim::driver
