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
 * One generated workload operation: workloads emit short runs of these
 * into a buffer (Workload::stepBatch) and ExecContext::runBatch replays
 * the run. The record itself lives in sim/ so Core::accessRun can fuse
 * over it.
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
     * donor context's per-thread counters so the fork is
     * indistinguishable from the context that populated.
     */
    ExecContext(Kernel &kernel, Process &proc, const ExecContext &donor)
        : k(kernel), proc_(proc), counters(donor.counters)
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
        if (!sched.timeShared())
            return k.machine().core(coreOf(tid)).access(va, is_write, pc);
        // Running a step makes the thread resident (context switching
        // if a competitor holds the core) and advances the core's
        // timeslice clock by the simulated cycles.
        CoreId core = sched.dispatch(proc_, tid, pc);
        Cycles c = k.machine().core(core).access(va, is_write, pc);
        sched.tick(core, c);
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
    }

    /**
     * Replay @p n generated ops for thread @p tid.
     *
     * Semantically identical to calling access()/compute() once per op
     * in order — and when time-sharing, or with batching or fusion
     * switched off (MITOSIM_BATCH=0, MITOSIM_FUSE=0) it literally does
     * that, so scheduler dispatch points stay byte-identical. Otherwise
     * it fuses each maximal run of same-page ops into one
     * Core::accessRun call, with the counter and core lookups hoisted
     * out of the loop: nothing hoisted can change mid-batch there
     * (threads never migrate cores in pinned mode, and fault handlers
     * do not flip scheduler modes), and fusion itself is exact, so the
     * simulated outcome is unchanged.
     */
    void
    runBatch(int tid, const BatchOp *ops, std::size_t n)
    {
        if (k.scheduler().timeShared() || !sim::batchEnabled() ||
            !sim::fuseEnabled()) {
            for (std::size_t i = 0; i < n; ++i) {
                if (ops[i].isCompute)
                    compute(tid, ops[i].cycles);
                else
                    access(tid, ops[i].va, ops[i].isWrite);
            }
            return;
        }
        // Computes between runs are charged here so every accessRun
        // starts on an access.
        auto &pc = counters[static_cast<std::size_t>(tid)];
        sim::Core &core = k.machine().core(coreOf(tid));
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

    /** Walk-cycle fraction over all threads' summed counters. */
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
    Kernel &k;
    Process &proc_;
    std::vector<sim::PerfCounters> counters;
};

} // namespace mitosim::os

#endif // MITOSIM_OS_EXEC_CONTEXT_H
