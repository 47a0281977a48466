#include "auto_policy.h"

namespace mitosim::core
{

namespace
{

/** Enable replication above this walk-cycle fraction. */
constexpr double EnableWalkFraction = 0.15;

/** Tear replicas down below this fraction (hysteresis band). */
constexpr double DisableWalkFraction = 0.05;

/** Ignore windows with fewer accesses (no signal). */
constexpr std::uint64_t MinAccessesPerSample = 5000;

/** Never replicate processes smaller than this (4 KB pages). */
constexpr std::uint64_t MinResidentPages = 1024; // 4 MiB

/**
 * Consecutive qualifying samples required before acting — filters
 * short-running processes, whose replication cost cannot be amortized
 * (§6.1).
 */
constexpr int SamplesBeforeAction = 2;

} // namespace

SocketMask
AutoPolicyEngine::runningSockets(os::Kernel &kernel,
                                 const os::Process &proc)
{
    // Sockets the scheduler has the process's threads assigned to —
    // pinned cores, or run-queue homes under time sharing. Replicating
    // onto exactly these is the counter-driven analogue of the §5.3
    // schedule-driven path (which the Mitosis backend walks per first
    // timeslice under SystemPolicy::AllProcesses).
    return kernel.socketsOf(proc);
}

AutoPolicyAction
AutoPolicyEngine::sample(os::Kernel &kernel, os::Process &proc,
                         const sim::PerfCounters &window)
{
    if (window.accesses < MinAccessesPerSample) {
        streak[proc.id()] = 0;
        return AutoPolicyAction::None;
    }
    if (proc.residentPages < MinResidentPages) {
        // Small footprints fit the TLB; replication cost would dominate
        // (§8.3: the 1 MB case is 23% memory overhead for nothing).
        streak[proc.id()] = 0;
        return AutoPolicyAction::None;
    }

    double walk_fraction = window.walkFraction();
    bool replicated = proc.roots().replicated();

    if (!replicated && walk_fraction >= EnableWalkFraction) {
        int &run = streak[proc.id()];
        if (++run < SamplesBeforeAction)
            return AutoPolicyAction::None;
        run = 0;
        SocketMask mask = runningSockets(kernel, proc);
        if (mask.count() < 2) {
            // Single-socket process: nothing to replicate across. A
            // future extension could trigger migration health checks.
            return AutoPolicyAction::None;
        }
        mitosis.setReplicationMask(proc.roots(), proc.id(), mask);
        kernel.reloadContexts(proc);
        return AutoPolicyAction::Enabled;
    }

    if (replicated && walk_fraction <= DisableWalkFraction) {
        int &run = streak[proc.id()];
        if (++run < SamplesBeforeAction)
            return AutoPolicyAction::None;
        run = 0;
        mitosis.setReplicationMask(proc.roots(), proc.id(),
                                   SocketMask::none());
        kernel.reloadContexts(proc);
        return AutoPolicyAction::Disabled;
    }

    streak[proc.id()] = 0;
    return AutoPolicyAction::None;
}

} // namespace mitosim::core
