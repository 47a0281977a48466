/**
 * @file
 * Time-sharing CPU scheduler: per-core run queues, round-robin
 * timeslices, oversubscription, and ASID-aware context switching.
 *
 * The seed kernel could only *pin*: one thread per core, `fatal()` when
 * a socket filled up, and every CR3 load flushed the whole TLB+PWC. The
 * paper's second scenario (§3.2, §5.3) is about processes *moving under
 * a scheduler* — "Mitosis allocates a replica when the process is
 * scheduled there" — which needs cores that are time-shared between
 * tenants with honestly modelled switch costs.
 *
 * Two modes, selected by SchedulerConfig::timeShared:
 *
 *  - **Pinned** (default): bit-for-bit the seed semantics. A thread owns
 *    its core, placement fails recoverably when a socket is full, every
 *    CR3 load flushes. All existing benches run in this mode and their
 *    numbers are unchanged.
 *
 *  - **Time-shared**: threads are *assigned* to a per-core run queue
 *    (least-loaded core of the requested socket; more threads than
 *    cores is fine) and become *resident* — CR3 actually loaded — only
 *    when they run. A dispatch of a non-resident thread is a context
 *    switch: the outgoing thread re-queues (counted as a preemption
 *    when its timeslice had expired), ContextSwitchCost + the CR3 write
 *    are charged to the incoming thread, and the TLB/PWC are either
 *    flushed (PCID off) or preserved under ASID tags (PCID on; a
 *    recycled ASID gets a selective flushAsid first). Each dispatch
 *    also fires PvOps::onThreadScheduled, the §5.3 seam where Mitosis
 *    builds a replica on a socket's first timeslice.
 *
 * The scheduler clock is virtual: ExecContext reports the simulated
 * cycles each access/compute step consumed (tick()), and a thread whose
 * accumulated slice exceeds the configured timeslice is marked expired —
 * the next dispatch of a competitor counts as a preemption. Waiting
 * time is not charged to waiting threads (runtimes stay per-thread
 * cycle counts; consolidation benches report the shared-core pressure
 * through switch counts and post-switch miss cycles instead).
 */

#ifndef MITOSIM_OS_SCHEDULER_H
#define MITOSIM_OS_SCHEDULER_H

#include <deque>
#include <functional>
#include <vector>

#include "src/os/process.h"
#include "src/pvops/pvops.h"
#include "src/sim/machine.h"
#include "src/sim/perf_counters.h"

namespace mitosim::os
{

/** Scheduler knobs (KernelConfig::sched). */
struct SchedulerConfig
{
    /** Off = seed-faithful pinning; on = run queues + timeslicing. */
    bool timeShared = false;

    /**
     * Tag TLB/PWC entries with the process ASID and preserve them
     * across context switches (x86 PCID). Off degenerates to the
     * seed's flush-everything CR3 load on every switch.
     */
    bool pcid = true;

    /** Timeslice in simulated cycles before a thread is preemptible. */
    Cycles timeslice = 50000;

    /**
     * ASID space size (x86: 12-bit PCID = 4096). Small values force
     * recycling, which costs a selective flush per generation bump.
     */
    int maxAsids = 4096;
};

/** Per-core run queues + residency; owned by the Kernel. */
class Scheduler
{
  public:
    /**
     * Run @p machine's cores over the Kernel's PV-Ops @p backend, which
     * supplies the CR3 values and the §5.3 onThreadScheduled hook.
     */
    Scheduler(sim::Machine &machine, pvops::PvOps &backend,
              const SchedulerConfig &config);

    /**
     * Invoked after every real (cross-address-space) context switch,
     * once the incoming CR3 is loaded. The Kernel points this at the
     * vmcheck dispatch checkpoint when checking is enabled.
     */
    void setDispatchHook(std::function<void()> hook)
    {
        dispatchHook = std::move(hook);
    }

    bool timeShared() const { return cfg.timeShared; }
    const SchedulerConfig &config() const { return cfg; }

    /// @name Address-space identifiers
    /// @{

    /**
     * Assign an ASID to a new process. ASIDs recycle round-robin with
     * a generation bump, so a core that still holds another owner's
     * tagged entries selectively flushes them before trusting the tag
     * (dispatch compares the owner's generation, which also keeps two
     * *live* aliasing owners apart under ASID-space pressure).
     */
    Asid assignAsid();

    /** Generation of the most recent assignAsid() for @p asid. */
    std::uint64_t generationOf(Asid asid) const
    {
        return asidGen[asid];
    }
    /// @}

    /// @name Thread placement
    /// @{

    /**
     * Core a new thread of @p proc should join on @p socket: pinned
     * mode scans for a free core (seed's findFreeCore order) and
     * returns -1 when the socket is full — the recoverable replacement
     * for the seed's fatal(); time-shared mode picks the least-loaded
     * core and never fails.
     */
    CoreId pickCore(SocketId socket) const;

    /** May a new thread join @p core? (pinned mode: is it free?) */
    bool canAdmit(CoreId core) const;

    /**
     * Admit thread @p tid of @p proc (already appended to the process's
     * thread list with its core set) to its core. Pinned mode makes it
     * resident immediately and loads CR3 (seed behaviour); time-shared
     * mode only enqueues — CR3 is loaded at first dispatch.
     */
    void admitThread(Process &proc, int tid);

    /**
     * Move every thread of @p proc to cores of @p target. Pinned mode
     * re-pins in the seed's core-choice order, returning false — with
     * nothing moved — when the socket cannot seat them all; time-shared
     * mode reassigns to the least-loaded queues (counting migrations;
     * CR3s reload lazily at the next dispatch) and always succeeds.
     */
    bool migrateThreads(Process &proc, SocketId target);

    /** Drop all of @p proc's threads: dequeue, park residencies
     *  (clearing CR3 on cores still holding the dying address space —
     *  the seed left those loaded against freed frames), and flush the
     *  process's tagged entries everywhere. */
    void removeProcess(Process &proc);
    /// @}

    /// @name Dispatch (time-shared mode)
    /// @{

    /**
     * Make thread @p tid of @p proc resident on its core, context
     * switching if another thread holds it. Switch costs (fixed cost,
     * CR3 write, §5.3 replica work) are charged to @p pc; a switch
     * between two threads of the *same* process keeps CR3 (Linux's
     * prev->mm == next->mm fast path) and pays only the fixed cost —
     * no flush even with PCID off. Returns the core to run on.
     */
    CoreId dispatch(Process &proc, int tid, sim::PerfCounters &pc);

    /** Advance the resident thread's slice clock on @p core. */
    void tick(CoreId core, Cycles spent);
    /// @}

    /// @name Residency queries (both modes)
    /// @{

    /** Pid resident on @p core, -1 when the core is idle. */
    ProcId residentPid(CoreId core) const;

    /** Cores on which @p proc is currently resident. */
    std::vector<CoreId> residentCores(const Process &proc) const;

    /** Threads assigned (queued or resident) to @p core. */
    int assignedThreads(CoreId core) const;
    /// @}

    /**
     * Snapshot restore: adopt the run queues, residencies and ASID
     * generations of @p src (its sched_* counters live in the metrics
     * registry, which a fork does not copy). Both schedulers must have
     * been built from the same config over the same machine shape; the
     * late-bound backend/hook of *this* kernel stay.
     */
    void
    cloneStateFrom(const Scheduler &src)
    {
        MITOSIM_ASSERT(cfg.timeShared == src.cfg.timeShared &&
                           cores.size() == src.cores.size(),
                       "cloneStateFrom: scheduler config mismatch");
        cores = src.cores;
        asidGen = src.asidGen;
        nextAsid = src.nextAsid;
    }

  private:
    /** A (process, thread) reference in a run queue. */
    struct ThreadRef
    {
        ProcId pid = -1;
        int tid = -1;

        bool valid() const { return pid >= 0; }
        bool operator==(const ThreadRef &) const = default;
    };

    struct CoreState
    {
        std::deque<ThreadRef> queue; //!< runnable, excluding resident
        ThreadRef resident;          //!< thread whose CR3 is loaded
        Cycles sliceUsed = 0;
        bool sliceExpired = false;
        int assigned = 0;            //!< threads homed on this queue
        std::vector<std::uint64_t> seenGen; //!< observed ASID generations
    };

    CoreState &state(CoreId core);
    const CoreState &state(CoreId core) const;

    /** Least-loaded core of @p socket (ties: lowest id). */
    CoreId leastLoadedCore(SocketId socket) const;

    sim::Machine &mach;
    SchedulerConfig cfg;
    pvops::PvOps &pv;
    std::function<void()> dispatchHook;
    std::vector<CoreState> cores;
    std::vector<std::uint64_t> asidGen; //!< generation per ASID
    int nextAsid = 1; //!< round-robin cursor; 0 is the kernel/boot space

    /// @name Observability handles (registered once in the ctor)
    /// @{
    obs::Counter *mSwitches = nullptr;
    obs::Counter *mPreemptions = nullptr;
    obs::Counter *mMigrations = nullptr;
    obs::Counter *mAsidRecycles = nullptr;
    obs::Counter *mEnqueues = nullptr;
    /// @}
};

} // namespace mitosim::os

#endif // MITOSIM_OS_SCHEDULER_H
