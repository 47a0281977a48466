#include "scheduler.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/pvops/costs.h"

namespace mitosim::os
{

Scheduler::Scheduler(sim::Machine &machine, const SchedulerConfig &config)
    : mach(machine), cfg(config),
      cores(static_cast<std::size_t>(machine.numCores())),
      asidGen(static_cast<std::size_t>(std::max(2, config.maxAsids)), 0)
{
    // Lower bound: {0 = kernel/boot, 1} must exist. Upper bound: the
    // Asid type is 16 bits; a larger space would truncate back onto
    // the reserved ASID 0.
    MITOSIM_ASSERT(cfg.maxAsids >= 2 && cfg.maxAsids <= 65536,
                   "maxAsids must be in [2, 65536]");
    for (auto &cs : cores)
        cs.seenGen.assign(asidGen.size(), 0);

    obs::MetricsRegistry &mr = mach.metrics();
    mSwitches = &mr.counter("sched_context_switches");
    mPreemptions = &mr.counter("sched_preemptions");
    mMigrations = &mr.counter("sched_migrations");
    mAsidRecycles = &mr.counter("sched_asid_recycle_flushes");
    mEnqueues = &mr.counter("sched_enqueues");
}

Scheduler::CoreState &
Scheduler::state(CoreId core)
{
    MITOSIM_ASSERT(core >= 0 && core < mach.numCores());
    return cores[static_cast<std::size_t>(core)];
}

const Scheduler::CoreState &
Scheduler::state(CoreId core) const
{
    MITOSIM_ASSERT(core >= 0 && core < mach.numCores());
    return cores[static_cast<std::size_t>(core)];
}

Asid
Scheduler::assignAsid()
{
    Asid asid = static_cast<Asid>(nextAsid);
    if (++nextAsid >= static_cast<int>(asidGen.size()))
        nextAsid = 1; // 0 stays the kernel/boot space
    std::uint64_t &gen = asidGen[asid];
    // First use is generation 1 (no core can hold entries yet); reuse
    // bumps the generation so cores selectively flush the previous
    // owner's leftovers before trusting the tag.
    ++gen;
    return asid;
}

CoreId
Scheduler::leastLoadedCore(SocketId socket) const
{
    const auto &topo = mach.topology();
    CoreId first = topo.firstCoreOf(socket);
    CoreId best = first;
    for (CoreId c = first; c < first + topo.coresPerSocket(); ++c) {
        if (state(c).assigned < state(best).assigned)
            best = c;
    }
    return best;
}

CoreId
Scheduler::pickCore(SocketId socket) const
{
    if (cfg.timeShared)
        return leastLoadedCore(socket);
    // Pinned: the seed's findFreeCore scan order, but recoverable.
    const auto &topo = mach.topology();
    CoreId first = topo.firstCoreOf(socket);
    for (CoreId c = first; c < first + topo.coresPerSocket(); ++c) {
        if (state(c).assigned == 0)
            return c;
    }
    return -1;
}

bool
Scheduler::canAdmit(CoreId core) const
{
    return cfg.timeShared || state(core).assigned == 0;
}

void
Scheduler::admitThread(Process &proc, int tid)
{
    const Thread &t = proc.threads().at(static_cast<std::size_t>(tid));
    CoreState &cs = state(t.core);
    ++cs.assigned;
    ++stats_.enqueues;
    mEnqueues->inc();
    if (cfg.timeShared) {
        cs.queue.push_back(ThreadRef{proc.id(), tid});
        return; // CR3 loads lazily, at the first dispatch
    }
    // Pinned: the thread owns the core; load its context now (flushing,
    // exactly the seed's CR3 semantics).
    cs.resident = ThreadRef{proc.id(), tid};
    SocketId socket = mach.topology().socketOfCore(t.core);
    mach.core(t.core).loadCr3(pv->cr3For(proc.roots(), socket), proc.asid,
                              false);
}

bool
Scheduler::migrateThreads(Process &proc, SocketId target)
{
    const auto &topo = mach.topology();
    auto &threads = proc.threads();

    if (!cfg.timeShared) {
        // Feasibility first, so a full target socket is a clean failure
        // instead of the seed's mid-loop fatal() with threads half
        // moved: every target core that is free — or will be freed by
        // this very migration — can host one thread.
        int available = 0;
        CoreId first = topo.firstCoreOf(target);
        for (CoreId c = first; c < first + topo.coresPerSocket(); ++c) {
            if (state(c).assigned == 0)
                ++available;
        }
        for (const auto &t : threads) {
            if (topo.socketOfCore(t.core) == target)
                ++available;
        }
        if (available < static_cast<int>(threads.size()))
            return false;

        // The seed's re-pin loop: free the thread's core, then claim
        // the first free core of the target socket. The vacated core
        // is parked outright — leaving its CR3 loaded would dangle
        // into page-table frames the Mitosis backend eagerly frees
        // right after the move (§5.5), beyond what destroy-time root
        // matching can recognize. reloadContexts() re-arms any core
        // this same loop hands back to the process.
        for (std::size_t i = 0; i < threads.size(); ++i) {
            CoreState &old_cs = state(threads[i].core);
            old_cs.assigned = 0;
            old_cs.resident = ThreadRef{};
            mach.core(threads[i].core).clearContext();
            CoreId fresh = pickCore(target);
            MITOSIM_ASSERT(fresh >= 0, "migrate feasibility check lied");
            CoreState &new_cs = state(fresh);
            new_cs.assigned = 1;
            new_cs.resident = ThreadRef{proc.id(), static_cast<int>(i)};
            threads[i].core = fresh;
        }
        return true;
    }

    for (std::size_t i = 0; i < threads.size(); ++i) {
        if (topo.socketOfCore(threads[i].core) == target)
            continue; // already local; keep its queue position
        ThreadRef me{proc.id(), static_cast<int>(i)};
        CoreState &old_cs = state(threads[i].core);
        if (old_cs.resident == me) {
            // Deschedule and park: leaving the CR3 loaded would keep
            // the old core walkable into page-tables this process may
            // free (e.g. Mitosis releasing the source replicas right
            // after the migration, §5.5).
            old_cs.resident = ThreadRef{};
            mach.core(threads[i].core).clearContext();
        } else {
            auto it = std::find(old_cs.queue.begin(), old_cs.queue.end(),
                                me);
            if (it != old_cs.queue.end())
                old_cs.queue.erase(it);
        }
        --old_cs.assigned;
        CoreId fresh = leastLoadedCore(target);
        CoreState &new_cs = state(fresh);
        ++new_cs.assigned;
        new_cs.queue.push_back(me);
        threads[i].core = fresh;
        ++stats_.migrations;
        mMigrations->inc();
        mach.tracer().instant(obs::TraceCat::Sched, "sched_migrate",
                              proc.id(), static_cast<int>(i), "core",
                              static_cast<std::uint64_t>(fresh));
    }
    return true;
}

void
Scheduler::removeProcess(Process &proc)
{
    ProcId pid = proc.id();
    // Is a core's loaded CR3 one of this process's roots? Residency is
    // not enough: a deschedule (migration) can leave the CR3 behind
    // with no resident ref, and under ASID aliasing the tag alone
    // would not prove ownership.
    auto owns_context = [&](const sim::Core &hw) {
        if (!hw.hasContext())
            return false;
        if (hw.cr3() == proc.roots().primaryRoot)
            return true;
        for (Pfn root : proc.roots().perSocketRoot) {
            if (root != InvalidPfn && root == hw.cr3())
                return true;
        }
        return false;
    };

    for (const auto &t : proc.threads())
        --state(t.core).assigned;
    for (CoreId c = 0; c < mach.numCores(); ++c) {
        CoreState &cs = state(c);
        std::erase_if(cs.queue,
                      [&](const ThreadRef &r) { return r.pid == pid; });
        if (cs.resident.pid == pid || owns_context(mach.core(c))) {
            // Park the context: the seed left the dead process's CR3
            // loaded here, a root pointer into freed (and reusable)
            // page-table frames.
            cs.resident = ThreadRef{};
            mach.core(c).clearContext();
        } else if (cfg.timeShared) {
            // The process may have run here earlier; its tagged
            // TLB/PWC entries must not survive the frames they map.
            mach.core(c).flushAsid(proc.asid);
        }
    }
}

CoreId
Scheduler::dispatch(Process &proc, int tid, sim::PerfCounters &pc)
{
    MITOSIM_ASSERT(cfg.timeShared, "dispatch in pinned mode");
    const Thread &t = proc.threads().at(static_cast<std::size_t>(tid));
    CoreId core = t.core;
    CoreState &cs = state(core);
    ThreadRef me{proc.id(), tid};
    if (cs.resident == me)
        return core; // already running; no cost

    ++stats_.contextSwitches;
    ++pc.contextSwitches;
    mSwitches->inc();
    mach.tracer().instant(obs::TraceCat::Sched, "sched_dispatch",
                          proc.id(), tid, "core",
                          static_cast<std::uint64_t>(core));
    // Linux's prev->mm == next->mm fast path: switching between two
    // threads of one process keeps CR3 — no flush even with PCID off,
    // no CR3 write, no replica work; only the fixed switch cost.
    bool same_space = cs.resident.valid() && cs.resident.pid == proc.id();
    if (cs.resident.valid()) {
        if (cs.sliceExpired) {
            ++stats_.preemptions;
            mPreemptions->inc();
            mach.tracer().instant(obs::TraceCat::Sched, "sched_preempt",
                                  cs.resident.pid, cs.resident.tid,
                                  "core",
                                  static_cast<std::uint64_t>(core));
        }
        cs.queue.push_back(cs.resident);
    }
    // Take our queue slot. Round-robin order is advisory in this
    // discrete-event model: the workload's interleaving decides who
    // runs next; the queue records who shares the core.
    auto it = std::find(cs.queue.begin(), cs.queue.end(), me);
    if (it != cs.queue.end())
        cs.queue.erase(it);
    cs.resident = me;
    cs.sliceUsed = 0;
    cs.sliceExpired = false;

    MITOSIM_ASSERT(proc.asidGeneration != 0,
                   "dispatching a process with no assigned ASID");

    // Kernel-side switch work, charged to the incoming thread.
    Cycles cost = pvops::ContextSwitchCost;

    if (same_space) {
        pc.cycles += cost;
        pc.kernelCycles += cost;
        return core;
    }

    // §5.3: first timeslice on a new socket builds the local replica.
    SocketId socket = mach.topology().socketOfCore(core);
    pvops::KernelCost kc;
    pv->onThreadScheduled(proc.roots(), proc.id(), socket, &kc);
    cost += kc.cycles;

    Pfn root = pv->cr3For(proc.roots(), socket);
    sim::Core &hw = mach.core(core);
    if (!cfg.pcid) {
        cost += hw.loadCr3(root, proc.asid, false); // flush everything
    } else {
        // Compare against the *incoming process's own* generation, not
        // the ASID's latest: under ASID pressure two live processes
        // can alias one ASID (each with its own generation), and the
        // mismatch then forces a selective flush on every handover so
        // neither can hit the other's tagged entries. seen == 0 means
        // this core never held the ASID at all — nothing to flush.
        std::uint64_t &seen = cs.seenGen[proc.asid];
        if (seen != 0 && seen != proc.asidGeneration) {
            hw.flushAsid(proc.asid);
            ++stats_.asidRecycleFlushes;
            mAsidRecycles->inc();
            mach.tracer().instant(obs::TraceCat::Asid,
                                  "asid_recycle_flush", proc.id(), tid,
                                  "asid", proc.asid);
        }
        seen = proc.asidGeneration;
        cost += hw.loadCr3(root, proc.asid, true);
    }
    pc.cycles += cost;
    pc.kernelCycles += cost;
    if (dispatchHook)
        dispatchHook();
    return core;
}

void
Scheduler::tick(CoreId core, Cycles spent)
{
    CoreState &cs = state(core);
    cs.sliceUsed += spent;
    if (cs.sliceUsed >= cfg.timeslice)
        cs.sliceExpired = true;
}

ProcId
Scheduler::residentPid(CoreId core) const
{
    const CoreState &cs = state(core);
    return cs.resident.valid() ? cs.resident.pid : -1;
}

std::vector<CoreId>
Scheduler::residentCores(const Process &proc) const
{
    std::vector<CoreId> out;
    for (CoreId c = 0; c < mach.numCores(); ++c) {
        if (state(c).resident.pid == proc.id())
            out.push_back(c);
    }
    return out;
}

int
Scheduler::assignedThreads(CoreId core) const
{
    return state(core).assigned;
}

} // namespace mitosim::os
