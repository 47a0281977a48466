/**
 * @file
 * Counter-driven automatic replication policy — the extension the paper
 * sketches in §6.1 and leaves as future work:
 *
 *   "the OS can obtain TLB miss rates or cycles spent walking
 *    page-tables through performance counters ... and then apply policy
 *    decisions automatically. A high TLB miss rate suggests that a
 *    process can benefit from page-table replication or migration. ...
 *    we disable page-table replication for short-running processes
 *    since the performance and memory cost ... cannot be amortized."
 *
 * The engine samples each process's walk-cycle fraction over a window
 * and, with hysteresis, enables replication onto the sockets the
 * process runs on (or tears it down again). Small processes are never
 * replicated: their working set fits the TLB anyway (§8.3's 1 MB
 * argument) and the relative memory overhead is largest there. The
 * thresholds (walk-fraction band, minimum window and footprint, samples
 * before acting) are constants in auto_policy.cc.
 */

#ifndef MITOSIM_CORE_AUTO_POLICY_H
#define MITOSIM_CORE_AUTO_POLICY_H

#include <map>

#include "src/core/mitosis.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/sim/perf_counters.h"

namespace mitosim::core
{

/** What a sample decided. */
enum class AutoPolicyAction
{
    None,
    Enabled,
    Disabled,
};

/**
 * The automatic policy engine. One instance per kernel; call sample()
 * periodically per process with the counters accumulated since the last
 * sample (the model of a per-task perf-counter readout).
 */
class AutoPolicyEngine
{
  public:
    explicit AutoPolicyEngine(MitosisBackend &backend) : mitosis(backend) {}

    /**
     * Feed one measurement window for @p proc.
     *
     * @param window counters accumulated over the window
     * @return the action taken (replication mask changes are applied
     *         and contexts reloaded via @p kernel).
     */
    AutoPolicyAction sample(os::Kernel &kernel, os::Process &proc,
                            const sim::PerfCounters &window);

  private:
    /** Sockets on which @p proc currently has threads. */
    static SocketMask runningSockets(os::Kernel &kernel,
                                     const os::Process &proc);

    MitosisBackend &mitosis;
    std::map<ProcId, int> streak; //!< consecutive qualifying samples
};

} // namespace mitosim::core

#endif // MITOSIM_CORE_AUTO_POLICY_H
