/**
 * @file
 * Execution context: N logical workload threads with per-thread
 * performance counters, pinned to cores or (when the kernel runs the
 * time-sharing scheduler) assigned to per-core run queues.
 *
 * Threads are simulated round-robin in small chunks so that same-socket
 * threads share L3 state roughly the way concurrent execution would.
 * Under the scheduler every access/compute step also advances the
 * scheduler clock: a step by a non-resident thread context-switches its
 * core (costed through Scheduler::dispatch), which is how tenant
 * processes interleave on shared cores and L3. The reported "runtime"
 * of a parallel phase is the maximum per-thread cycle count (threads
 * run concurrently in the modelled machine).
 */

#ifndef MITOSIM_OS_EXEC_CONTEXT_H
#define MITOSIM_OS_EXEC_CONTEXT_H

#include <vector>

#include "src/base/logging.h"
#include "src/os/kernel.h"
#include "src/os/process.h"
#include "src/sim/batch_op.h"
#include "src/sim/perf_counters.h"

namespace mitosim::os
{

/**
 * One pre-generated workload operation for the batched stepping path:
 * workloads emit short runs of these into a per-thread buffer
 * (Workload::stepBatch) and ExecContext::runBatch consumes the run in
 * a tight loop with the per-op mode checks hoisted out. The record
 * itself lives in sim/ so Core::accessRun can fuse over it.
 */
using BatchOp = sim::BatchOp;

/** Workload-facing execution handle. */
class ExecContext
{
  public:
    ExecContext(Kernel &kernel, Process &proc) : k(kernel), proc_(proc) {}

    /**
     * Snapshot-fork constructor: bind to a process whose threads were
     * already spawned by the donor and copied in with the kernel state
     * (addThread would spawn them a second time), and adopt the
     * donor context's per-thread counters and THP-tick clock so the
     * fork is indistinguishable from the context that populated.
     */
    ExecContext(Kernel &kernel, Process &proc, const ExecContext &donor)
        : k(kernel), proc_(proc), counters(donor.counters),
          thpTickPeriod(donor.thpTickPeriod),
          thpTickCredit(donor.thpTickCredit)
    {
        MITOSIM_ASSERT(counters.size() == proc.threads().size(),
                       "snapshot fork: thread/counter count mismatch");
    }

    /** Start a new logical thread on @p socket (pinned: needs a free
     *  core; time-shared: joins a run queue). */
    int
    addThread(SocketId socket)
    {
        if (k.spawnThreadOnSocket(proc_, socket) < 0)
            fatal("addThread: no free core on socket %d", socket);
        counters.emplace_back();
        return static_cast<int>(counters.size()) - 1;
    }

    /** Start a new logical thread on exactly @p core (time-shared mode
     *  joins its queue; pinned mode claims it, which must be free). */
    int
    addThreadOnCore(CoreId core)
    {
        k.spawnThread(proc_, core);
        counters.emplace_back();
        return static_cast<int>(counters.size()) - 1;
    }

    int numThreads() const { return static_cast<int>(counters.size()); }

    /** Core currently backing logical thread @p tid. */
    CoreId
    coreOf(int tid) const
    {
        return proc_.threads().at(static_cast<std::size_t>(tid)).core;
    }

    SocketId
    socketOf(int tid) const
    {
        return k.machine().topology().socketOfCore(coreOf(tid));
    }

    /** One load/store by thread @p tid. */
    Cycles
    access(int tid, VirtAddr va, bool is_write)
    {
        auto &pc = counters[static_cast<std::size_t>(tid)];
        Scheduler &sched = k.scheduler();
        Cycles c;
        if (sched.timeShared()) {
            // Running a step makes the thread resident (context
            // switching if a competitor holds the core) and advances
            // the core's timeslice clock by the simulated cycles.
            CoreId core = sched.dispatch(proc_, tid, pc);
            c = k.machine().core(core).access(va, is_write, pc);
            sched.tick(core, c);
        } else {
            c = k.machine().core(coreOf(tid)).access(va, is_write, pc);
        }
        noteThpCycles(c);
        k.machine().tracer().advance(c);
        return c;
    }

    /** Charge non-memory work to thread @p tid. */
    void
    compute(int tid, Cycles c)
    {
        auto &pc = counters[static_cast<std::size_t>(tid)];
        Scheduler &sched = k.scheduler();
        if (sched.timeShared()) {
            CoreId core = sched.dispatch(proc_, tid, pc);
            sched.tick(core, c);
        }
        pc.cycles += c;
        pc.computeCycles += c;
        noteThpCycles(c);
        k.machine().tracer().advance(c);
    }

    /**
     * Replay @p n pre-generated ops for thread @p tid.
     *
     * Semantically identical to calling access()/compute() once per op
     * in order — and when time-sharing or event tracing it literally
     * does that, so scheduler dispatch points and the tracer's event
     * stream stay byte-identical. In the pinned steady state it
     * instead hoists the per-op mode checks, the counter lookup and
     * the core lookup out of the loop: nothing hoisted can change
     * mid-batch there (threads never migrate cores in pinned mode, and
     * fault handlers do not flip scheduler modes), so the simulated
     * outcome is unchanged.
     *
     * Pinned runs with THP ticks active fuse too: each accessRun call
     * gets the cycles remaining until the next daemon tick as a budget
     * and ends at the op that crosses it, after which noteThpCycles
     * fires the tick — the exact op boundary where the per-op path
     * would have run it (see Core::accessRun). With fusion disabled
     * (MITOSIM_FUSE=0) tick runs take the literal per-op path.
     */
    void
    runBatch(int tid, const BatchOp *ops, std::size_t n)
    {
        if (k.scheduler().timeShared() ||
            k.machine().tracer().enabled() ||
            (thpTickPeriod != 0 && !sim::fuseEnabled())) {
            for (std::size_t i = 0; i < n; ++i) {
                if (ops[i].isCompute)
                    compute(tid, ops[i].cycles);
                else
                    access(tid, ops[i].va, ops[i].isWrite);
            }
            return;
        }
        auto &pc = counters[static_cast<std::size_t>(tid)];
        sim::Core &core = k.machine().core(coreOf(tid));
        if (thpTickPeriod != 0) {
            // Tick-aware fusion: noteThpCycles keeps thpTickCredit
            // strictly below thpTickPeriod, so the budget is always
            // positive and accessRun stops on (and consumes) exactly
            // the op whose charge crosses the tick boundary. pc.cycles
            // advances by precisely the sum the per-op path would have
            // passed to noteThpCycles op by op, so measuring its delta
            // fires ticks at identical points. Computes outside a run
            // tick individually, as in the per-op path.
            std::size_t i = 0;
            while (i < n) {
                if (ops[i].isCompute) {
                    pc.cycles += ops[i].cycles;
                    pc.computeCycles += ops[i].cycles;
                    noteThpCycles(ops[i].cycles);
                    ++i;
                    continue;
                }
                Cycles before = pc.cycles;
                i += core.accessRun(ops + i, n - i, pc,
                                    thpTickPeriod - thpTickCredit);
                noteThpCycles(pc.cycles - before);
            }
            return;
        }
        if (sim::fuseEnabled()) {
            // Run fusion: each accessRun call replays one maximal run
            // of same-page ops with a single real TLB probe and one
            // real cache probe per distinct line (exact — see
            // Core::accessRun). Leading computes are charged here so
            // every accessRun starts on an access.
            std::size_t i = 0;
            while (i < n) {
                if (ops[i].isCompute) {
                    pc.cycles += ops[i].cycles;
                    pc.computeCycles += ops[i].cycles;
                    ++i;
                    continue;
                }
                i += core.accessRun(ops + i, n - i, pc);
            }
            return;
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (ops[i].isCompute) {
                pc.cycles += ops[i].cycles;
                pc.computeCycles += ops[i].cycles;
            } else {
                core.access(ops[i].va, ops[i].isWrite, pc);
            }
        }
    }

    /**
     * Tie the THP daemons to this context's execution clock: every
     * @p period simulated cycles spent in access()/compute(), the
     * kernel runs one khugepaged + kcompactd pass (Kernel::thpTick) —
     * the same explicit-period pattern as the AutoNUMA scan ticks.
     * 0 (the default) disables.
     */
    void
    enableThpTicks(Cycles period)
    {
        thpTickPeriod = period;
        thpTickCredit = 0;
    }

    sim::PerfCounters &
    threadCounters(int tid)
    {
        return counters[static_cast<std::size_t>(tid)];
    }

    /** Aggregate counters over all threads. */
    sim::PerfCounters
    totals() const
    {
        sim::PerfCounters sum;
        for (const auto &pc : counters)
            sum.add(pc);
        return sum;
    }

    /** Parallel runtime: the slowest thread's cycles. */
    Cycles
    runtime() const
    {
        Cycles max = 0;
        for (const auto &pc : counters)
            max = std::max(max, pc.cycles);
        return max;
    }

    /** Walk-cycle fraction of the slowest thread's socket-mates. */
    double
    walkFraction() const
    {
        sim::PerfCounters sum = totals();
        return sum.walkFraction();
    }

    /** Reset counters (benches exclude the initialization phase). */
    void
    resetCounters()
    {
        for (auto &pc : counters)
            pc = sim::PerfCounters{};
    }

    Kernel &kernel() { return k; }
    Process &process() { return proc_; }

  private:
    void
    noteThpCycles(Cycles c)
    {
        if (!thpTickPeriod)
            return;
        thpTickCredit += c;
        while (thpTickCredit >= thpTickPeriod) {
            thpTickCredit -= thpTickPeriod;
            k.thpTick();
        }
    }

    Kernel &k;
    Process &proc_;
    std::vector<sim::PerfCounters> counters;
    Cycles thpTickPeriod = 0; //!< 0 = no daemon ticks from this context
    Cycles thpTickCredit = 0;
};

} // namespace mitosim::os

#endif // MITOSIM_OS_EXEC_CONTEXT_H
