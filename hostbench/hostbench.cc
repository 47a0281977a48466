/**
 * @file
 * hostbench: the host-cost benchmark driver for libmitosim.
 *
 * Runs one of three closed-loop workloads on one host thread, driven by
 * a single caller, each sized so one simulator layer dominates its
 * timed body:
 *
 *   populate-4k  first-touch populate of a 4 GiB 4 KB-page footprint
 *                (the fig10b LP-LD-4k-base shape), then a snapshot
 *                fork, a page-table migration, 4-way replication and a
 *                short replay;
 *   replay-ms    8 threads on 4 sockets with replicas everywhere (the
 *                fig09a F+M shape) replaying millions of accesses from
 *                a well-fusing and a barely-fusing generator;
 *   vma-churn    seeded mmap/mprotect/munmap/madvise over 4 KB-8 MB
 *                ranges of a 4-way replicated process on fragmented
 *                memory, interleaved with THP daemon ticks, AutoNUMA
 *                scans and short replays.
 *
 * Every public library call of a timed body is timed from outside.
 * With --trace 1 every other iteration also records one span (name,
 * start, end, parent) per call; spans of one iteration share its id,
 * stay in memory and are written as Chrome trace JSON at exit. The
 * driver prints one JSON document describing every iteration on
 * stdout; hostbench/run.py turns it into the benchmark's metrics.
 *
 *   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>] [--min-iters <n>]
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/base/rng.h"
#include "src/check/vmcheck.h"
#include "src/core/mitosis.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/sim/batch_op.h"
#include "src/sim/machine.h"
#include "src/snapshot/snapshot.h"
#include "src/workloads/workload.h"

using namespace mitosim;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point Epoch = Clock::now();

/** Seconds since the driver started. */
double
sinceEpoch(Clock::time_point t)
{
    return std::chrono::duration<double>(t - Epoch).count();
}

/** CPU seconds consumed by the calling thread. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** CPUs this process may run on, ascending. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Move the calling thread onto exactly @p cpu (best effort). */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

/// @name Workload shapes
/// @{

constexpr std::uint64_t MiB = 1ull << 20;
constexpr std::uint64_t GiB = 1ull << 30;

// populate-4k: the fig10b LP-LD-4k-base donor.
constexpr std::uint64_t PopulateFootprint = 4 * GiB;
constexpr std::uint64_t PopulateReplayOps = 20000;

// replay-ms: the fig09a F+M shape, split between two generators.
constexpr std::uint64_t ReplayFootprint = 64 * MiB; // per generator
constexpr int ReplayRounds = 4;
constexpr std::uint64_t ReplayFusingOps = 1500;  // per thread, per round
constexpr std::uint64_t ReplayScatterOps = 3000; // per thread, per round

// vma-churn: the ext_thp_aging mitosis-on shape plus tab05 range ops.
constexpr std::uint64_t ChurnFootprint = 64 * MiB;
constexpr int ChurnSyscalls = 6000;
constexpr int ChurnThpEvery = 300;      // syscalls per THP daemon tick
constexpr int ChurnAutoNumaEvery = 300; // syscalls per AutoNUMA scan
constexpr int ChurnReplayEvery = 100;   // syscalls per short replay
constexpr std::uint64_t ChurnReplayOps = 200;
constexpr std::uint64_t ChurnLiveCap = 256 * MiB;
constexpr unsigned ChurnMaxPagesLog2 = 11; // 2^11 pages = 8 MiB
// Per ChurnSchedule calls: mmap, munmap, mprotect, then madvise slots.
constexpr int ChurnSchedule = 20;
constexpr int ChurnMapSlots = 7;
constexpr int ChurnUnmapSlots = 4;
constexpr int ChurnAdviseSlots = 4;

// VMA probe run after the replays of populate-4k and replay-ms, so all
// three workloads report per-syscall host latency on a replicated tree.
// Its sizes are fixed (1-16 pages, cycling), not seeded, so the latency
// distribution does not move with the seed.
constexpr int ProbeCycles = 1024;

/// @}

/** One recorded span; times are seconds since the driver started. */
struct Span
{
    std::string_view name;
    double start = 0.0;
    double end = 0.0;
    int id = 0;
    int parent = -1; //!< enclosing span, -1 for an iteration's root
    int iter = 0;    //!< spans of one iteration share this id
};

/** In-memory span recorder; records only while an iteration is traced. */
class SpanLog
{
  public:
    void
    beginIteration(int iter, bool on)
    {
        iter_ = iter;
        on_ = on;
        stack_.clear();
    }

    int
    open(std::string_view name, double start)
    {
        if (!on_)
            return -1;
        int id = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, start, start, id,
                              stack_.empty() ? -1 : stack_.back(), iter_});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id, double end)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = end;
        stack_.pop_back();
    }

    /** Chrome trace JSON: one complete ("X") event per span, in us. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%.*s\",\"cat\":\"hostbench\","
                         "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                         "\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,"
                         "\"iter\":%d}}",
                         i ? "," : "", static_cast<int>(s.name.size()),
                         s.name.data(), s.start * 1e6,
                         (s.end - s.start) * 1e6, s.id, s.parent, s.iter);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int iter_ = 0;
    bool on_ = false;
};

/** What one iteration measured. */
struct Iteration
{
    bool warmup = false;
    bool traced = false;
    bool aborted = false; //!< a call threw; the timings are incomplete
    double setupS = 0.0; //!< set-up: machine, kernel, process, generator
    double wallS = 0.0;  //!< timed body, wall
    double cpuS = 0.0;   //!< timed body, thread CPU
    std::uint64_t accesses = 0; //!< simulated accesses in the body
    std::uint64_t ops = 0;      //!< timed public calls
    std::vector<std::string> failures;
    std::vector<std::pair<std::string, double>> counts;
    std::map<std::string_view, std::vector<double>> callUs;

    void
    count(std::string name, double value)
    {
        counts.emplace_back(std::move(name), value);
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** Times public calls and body segments of the current iteration. */
class Timer
{
  public:
    explicit Timer(SpanLog &spans) : spans_(spans) {}

    void
    begin(Iteration &it)
    {
        it_ = &it;
    }

    /** Open a timed body segment (the iteration's root span). */
    void
    bodyBegin()
    {
        segWall_ = Clock::now();
        segCpu_ = threadCpuSeconds();
        bodySpan_ = spans_.open("body", sinceEpoch(segWall_));
    }

    void
    bodyEnd()
    {
        double cpu = threadCpuSeconds();
        Clock::time_point t = Clock::now();
        it_->wallS += std::chrono::duration<double>(t - segWall_).count();
        it_->cpuS += cpu - segCpu_;
        spans_.close(bodySpan_, sinceEpoch(t));
    }

    /** Time @p fn as one public call of layer @p name. */
    template <typename Fn>
    void
    call(std::string_view name, Fn &&fn)
    {
        ++it_->ops;
        Clock::time_point t0 = Clock::now();
        int span = spans_.open(name, sinceEpoch(t0));
        fn();
        Clock::time_point t1 = Clock::now();
        spans_.close(span, sinceEpoch(t1));
        it_->callUs[name].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }

  private:
    SpanLog &spans_;
    Iteration *it_ = nullptr;
    Clock::time_point segWall_;
    double segCpu_ = 0.0;
    int bodySpan_ = -1;
};

/** The replay-side counters the benchmark reports, as deltas. */
struct ReplayTally
{
    std::uint64_t accesses = 0;
    std::uint64_t walks = 0;
    std::uint64_t walkMemRefs = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l3LocalHits = 0;
    std::uint64_t l3RemoteHits = 0;
    std::uint64_t ptDramLocal = 0;
    std::uint64_t ptDramRemote = 0;
    std::uint64_t fusedOps = 0;
};

std::uint64_t
fusedOps(sim::Machine &machine)
{
    std::uint64_t ops = 0;
    for (CoreId c = 0; c < machine.numCores(); ++c)
        ops += machine.core(c).fusedOps();
    return ops;
}

/** runInterleaved as one timed call, its counter deltas into @p tally. */
void
replay(Timer &timer, snapshot::Universe &u, workloads::Workload &w,
       std::uint64_t ops_per_thread, ReplayTally &tally)
{
    sim::PerfCounters a = u.ctx->totals();
    std::uint64_t fa = fusedOps(u.machine);
    timer.call("sim.replay",
               [&] { workloads::runInterleaved(*u.ctx, w, ops_per_thread); });
    sim::PerfCounters b = u.ctx->totals();
    tally.accesses += b.accesses - a.accesses;
    tally.walks += b.walks - a.walks;
    tally.walkMemRefs += b.walkMemRefs - a.walkMemRefs;
    tally.tlbMisses += b.tlbMisses - a.tlbMisses;
    tally.l1dHits += b.l1dHits - a.l1dHits;
    tally.l3LocalHits += b.l3LocalHits - a.l3LocalHits;
    tally.l3RemoteHits += b.l3RemoteHits - a.l3RemoteHits;
    tally.ptDramLocal += b.ptDramLocal - a.ptDramLocal;
    tally.ptDramRemote += b.ptDramRemote - a.ptDramRemote;
    tally.fusedOps += fusedOps(u.machine) - fa;
}

/** Workload::setup as one timed call; returns the 4 KB pages faulted. */
std::uint64_t
populate(Timer &timer, snapshot::Universe &u, workloads::Workload &w)
{
    std::uint64_t before = u.proc->residentPages;
    timer.call("workloads.populate", [&] { w.setup(*u.ctx); });
    return u.proc->residentPages - before;
}

/** setReplicationMask onto every socket, then reload the CR3s. */
void
replicate(Timer &timer, snapshot::Universe &u, Iteration &it)
{
    bool ok = false;
    timer.call("core.replicate", [&] {
        ok = u.mitosis().setReplicationMask(
            u.proc->roots(), u.proc->id(),
            SocketMask::all(u.machine.numSockets()));
        u.kernel.reloadContexts(*u.proc);
    });
    it.check(ok, "setReplicationMask refused the all-socket mask");
}

/**
 * A fixed VMA probe on the (replicated) process: small populated
 * mappings taken through mprotect, madvise and munmap.
 */
void
vmaProbe(Timer &timer, snapshot::Universe &u)
{
    os::Kernel &k = u.kernel;
    os::Process &p = *u.proc;
    for (int i = 0; i < ProbeCycles; ++i) {
        std::uint64_t len = static_cast<std::uint64_t>(1 + i % 16) * PageSize;
        os::Region r;
        timer.call("os.mmap", [&] {
            r = k.mmap(p, len, os::MmapOptions{.populate = true});
        });
        timer.call("os.mprotect",
                   [&] { k.mprotect(p, r.start, r.length, os::ProtRead); });
        timer.call("os.madvise", [&] {
            k.madvise(p, r.start, r.length, os::Madvise::Huge);
        });
        timer.call("os.munmap", [&] { k.munmap(p, r.start, r.length); });
    }
}

/** Kernel event counts read back from the metrics registry. */
struct KernelEvents
{
    double faults = 0.0; //!< kernel_faults, every kind
    double shootdowns = 0.0;

    KernelEvents &
    operator+=(const KernelEvents &o)
    {
        faults += o.faults;
        shootdowns += o.shootdowns;
        return *this;
    }
};

/** MetricsRegistry::flatten as one timed call. */
KernelEvents
flatten(Timer &timer, snapshot::Universe &u)
{
    std::vector<std::pair<std::string, double>> flat;
    timer.call("obs.flatten", [&] { flat = u.machine.metrics().flatten(); });
    KernelEvents ev;
    for (const auto &[key, value] : flat) {
        if (key.starts_with("kernel_faults{"))
            ev.faults += value;
        else if (key == "kernel_tlb_shootdowns")
            ev.shootdowns += value;
    }
    return ev;
}

/**
 * Record the exact counts of the final universe and run the checks
 * that hold at any seed: walk-cycle attribution sums to walkCycles and
 * the backend's ring-wide collapse/split counts match the OS side.
 */
void
recordCounts(Iteration &it, snapshot::Universe &u, const ReplayTally &t,
             std::uint64_t populated, const KernelEvents &ev)
{
    sim::PerfCounters pc = u.ctx->totals();
    const core::MitosisStats &ms = u.mitosis().stats();
    const os::thp::ThpStats &ts = u.kernel.thp().stats();
    mem::PhysicalMemory &pm = u.machine.physmem();

    std::uint64_t pt_pages = 0;
    for (SocketId s = 0; s < u.machine.numSockets(); ++s)
        for (int level = 1; level <= static_cast<int>(PtLevels); ++level)
            pt_pages += pm.ptPagesAt(s, level);

    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    it.count("os.faults", ev.faults);
    it.count("workloads.pages_populated", d(populated));
    it.count("pt.pt_pages", d(pt_pages));
    it.count("mem.arena_chunks", d(pm.tableArenaStats().chunks));
    it.count("core.replica_pages", d(ms.replicaPagesCreated));
    it.count("core.eager_updates", d(ms.eagerUpdates));
    it.count("core.replica_refs", d(ms.replicaRefsOnUpdate));
    it.count("core.degraded_allocs", d(ms.degradedAllocs));
    it.count("sim.accesses", d(t.accesses));
    it.count("sim.walks", d(t.walks));
    it.count("sim.walk_mem_refs", d(t.walkMemRefs));
    it.count("sim.pt_dram_local", d(t.ptDramLocal));
    it.count("sim.pt_dram_remote", d(t.ptDramRemote));
    it.count("sim.fused_ops", d(t.fusedOps));
    it.count("tlb.misses", d(t.tlbMisses));
    it.count("cache.l1d_hits", d(t.l1dHits));
    it.count("cache.l3_local_hits", d(t.l3LocalHits));
    it.count("cache.l3_remote_hits", d(t.l3RemoteHits));
    it.count("os.shootdowns", ev.shootdowns);
    it.count("thp.collapses", d(ts.collapses));
    it.count("thp.splits", d(ts.splits));
    it.count("thp.collapse_failed", d(ts.collapseFailedNoBlock));
    it.count("thp.compaction_pages_moved", d(ts.compactionPagesMoved));
    it.count("os.autonuma_pages_migrated",
             d(u.kernel.autoNuma().stats().pagesMigrated));
    it.count("sim.walk_cycles", d(pc.walkCycles));
    it.count("sim.cycles", d(u.ctx->runtime()));

    Cycles attributed = 0;
    for (unsigned level = 0; level < PtLevels; ++level)
        for (int remote = 0; remote < 2; ++remote)
            attributed += pc.walkCyclesAttr[level][remote];
    it.check(attributed == pc.walkCycles,
             "walk-cycle attribution buckets do not sum to walkCycles");
    it.check(ms.hugeCollapses == ts.collapses,
             "MitosisStats::hugeCollapses != ThpStats::collapses");
    it.check(ms.hugeSplits == ts.splits,
             "MitosisStats::hugeSplits != ThpStats::splits");
}

/** vmcheck replica coherence and frame accounting on @p u's kernel. */
void
checkMachine(Iteration &it, snapshot::Universe &u)
{
    check::CheckConfig cfg;
    cfg.failFast = false;
    check::Checker checker(u.kernel, cfg);
    checker.checkReplicaCoherence();
    it.check(checker.violations().empty(), "replica coherence violated");
    std::size_t seen = checker.violations().size();
    checker.checkFrameAccounting();
    it.check(checker.violations().size() == seen,
             "frame accounting violated");
    for (const check::Violation &v : checker.violations())
        it.failures.push_back(v.str());
}

/** A Universe with one process; threads and generator added by callers. */
std::unique_ptr<snapshot::Universe>
makeUniverse(const os::KernelConfig &kcfg, const char *name)
{
    auto u = std::make_unique<snapshot::Universe>(
        bench::benchMachine(), snapshot::BackendKind::Mitosis,
        core::MitosisConfig{}, kcfg);
    u->proc = &u->kernel.createProcess(name, 0);
    u->ctx = std::make_unique<os::ExecContext>(u->kernel, *u->proc);
    return u;
}

std::unique_ptr<workloads::Workload>
makeGenerator(const char *name, std::uint64_t footprint, std::uint64_t seed,
              bool thp = false)
{
    workloads::WorkloadParams p;
    p.footprint = footprint;
    p.seed = seed;
    p.thp = thp;
    return workloads::makeWorkload(name, p);
}

/// @name The three workloads (one iteration each)
/// @{

void
runPopulate4k(Timer &timer, Iteration &it, std::uint64_t seed)
{
    os::KernelConfig kcfg;
    Clock::time_point s0 = Clock::now();
    auto u = makeUniverse(kcfg, "redis");
    u->kernel.setDataPolicy(*u->proc, os::DataPolicy::Fixed, 0);
    u->kernel.setPtPlacement(*u->proc, pt::PtPlacement::Fixed, 0);
    u->ctx->addThread(0);
    u->workload = makeGenerator("redis", PopulateFootprint, seed);
    it.setupS = std::chrono::duration<double>(Clock::now() - s0).count();

    ReplayTally tally;
    std::unique_ptr<snapshot::Universe> f;
    timer.bodyBegin();
    std::uint64_t populated = populate(timer, *u, *u->workload);
    timer.call("snapshot.fork", [&] { f = u->fork(kcfg); });
    bool migrated = false;
    timer.call("core.migrate", [&] {
        migrated = f->mitosis().migratePageTables(f->proc->roots(),
                                                  f->proc->id(), 1);
        f->kernel.reloadContexts(*f->proc);
    });
    it.check(migrated, "migratePageTables refused socket 1");
    replicate(timer, *f, it);
    replay(timer, *f, *f->workload, PopulateReplayOps, tally);
    vmaProbe(timer, *f);
    KernelEvents events = flatten(timer, *u);
    events += flatten(timer, *f);
    it.accesses = f->ctx->totals().accesses;
    timer.bodyEnd();

    recordCounts(it, *f, tally, populated, events);

    timer.bodyBegin();
    timer.call("snapshot.finalize", [&] {
        f->finalize();
        u->finalize();
    });
    timer.bodyEnd();
}

void
runReplayMs(Timer &timer, Iteration &it, std::uint64_t seed)
{
    Clock::time_point s0 = Clock::now();
    auto u = makeUniverse(os::KernelConfig{}, "replay-ms");
    for (SocketId s = 0; s < u->machine.numSockets(); ++s) {
        u->ctx->addThread(s);
        u->ctx->addThread(s);
    }
    u->workload = makeGenerator("xsbench", ReplayFootprint, seed);
    auto scatter = makeGenerator("canneal", ReplayFootprint, seed + 1);
    it.setupS = std::chrono::duration<double>(Clock::now() - s0).count();

    ReplayTally tally;
    timer.bodyBegin();
    std::uint64_t populated = populate(timer, *u, *u->workload);
    populated += populate(timer, *u, *scatter);
    replicate(timer, *u, it);
    for (int r = 0; r < ReplayRounds; ++r) {
        replay(timer, *u, *u->workload, ReplayFusingOps, tally);
        replay(timer, *u, *scatter, ReplayScatterOps, tally);
    }
    vmaProbe(timer, *u);
    KernelEvents events = flatten(timer, *u);
    it.accesses = u->ctx->totals().accesses;
    timer.bodyEnd();

    recordCounts(it, *u, tally, populated, events);
    checkMachine(it, *u);

    timer.bodyBegin();
    timer.call("snapshot.finalize", [&] { u->finalize(); });
    timer.bodyEnd();
}

/** A live churn mapping. */
struct Mapping
{
    VirtAddr start = 0;
    std::uint64_t length = 0;
};

void
runVmaChurn(Timer &timer, Iteration &it, std::uint64_t seed)
{
    os::KernelConfig kcfg;
    kcfg.thp.splitPartial = true;
    kcfg.thp.khugepaged = true;
    kcfg.thp.kcompactd = true;

    Clock::time_point s0 = Clock::now();
    auto u = makeUniverse(kcfg, "vma-churn");
    Rng frag(seed ^ 0xf7a6ull);
    for (SocketId s = 0; s < u->machine.numSockets(); ++s)
        u->machine.physmem().fragment(s, 1.0, frag);
    for (SocketId s = 0; s < u->machine.numSockets(); ++s)
        u->ctx->addThread(s);
    u->workload = makeGenerator("memcached", ChurnFootprint, seed, true);
    it.setupS = std::chrono::duration<double>(Clock::now() - s0).count();

    os::Kernel &k = u->kernel;
    os::Process &p = *u->proc;
    Rng rng(seed ^ 0xc0ffeeull);
    Rng numa(seed ^ 0x5eedull);
    std::vector<Mapping> live;
    std::uint64_t live_bytes = 0;

    // A page-aligned subrange of @p m: [start, start + length).
    auto subrange = [&](const Mapping &m) {
        std::uint64_t pages = m.length / PageSize;
        std::uint64_t first = rng.below(pages);
        std::uint64_t count = 1 + rng.below(pages - first);
        return Mapping{m.start + first * PageSize, count * PageSize};
    };

    ReplayTally tally;
    timer.bodyBegin();
    std::uint64_t populated = populate(timer, *u, *u->workload);
    replicate(timer, *u, it);
    k.enableAutoNuma(p, true);

    // The call mix and the mmap size classes follow a fixed schedule of
    // ChurnSchedule calls, so every seed issues the same distribution of
    // calls with the same THP eligibility, protections and advice; the
    // seed picks the mapping, the subrange, the exact size and the
    // populating core.
    for (int i = 1; i <= ChurnSyscalls; ++i) {
        const int slot = i % ChurnSchedule;
        const unsigned size_class = static_cast<unsigned>(
            (i / ChurnSchedule * ChurnMapSlots + slot) %
            (ChurnMaxPagesLog2 + 1));
        std::uint64_t pages = 1ull << size_class;
        pages = std::min<std::uint64_t>(pages + rng.below(pages),
                                        1ull << ChurnMaxPagesLog2);
        bool map = slot < ChurnMapSlots || live.empty();
        bool unmap = slot < ChurnMapSlots + ChurnUnmapSlots;
        if (map && live_bytes + pages * PageSize > ChurnLiveCap)
            map = false; // full: unmap instead
        if (map) {
            os::MmapOptions opts;
            opts.populate = true;
            opts.thp = i / ChurnSchedule % 2 == 0;
            opts.populateCore = u->ctx->coreOf(static_cast<int>(
                rng.below(static_cast<std::uint64_t>(u->ctx->numThreads()))));
            os::Region r;
            timer.call("os.mmap",
                       [&] { r = k.mmap(p, pages * PageSize, opts); });
            live.push_back(Mapping{r.start, r.length});
            live_bytes += r.length;
        } else {
            std::size_t idx = static_cast<std::size_t>(rng.below(live.size()));
            Mapping &m = live[idx];
            if (unmap) {
                // munmap: the whole mapping, or its tail.
                std::uint64_t mpages = m.length / PageSize;
                std::uint64_t keep = mpages > 1 && rng.chance(0.5)
                                         ? 1 + rng.below(mpages - 1)
                                         : 0;
                VirtAddr cut = m.start + keep * PageSize;
                std::uint64_t len = m.length - keep * PageSize;
                timer.call("os.munmap", [&] { k.munmap(p, cut, len); });
                live_bytes -= len;
                if (keep) {
                    m.length = keep * PageSize;
                } else {
                    live[idx] = live.back();
                    live.pop_back();
                }
            } else if (slot < ChurnSchedule - ChurnAdviseSlots) {
                Mapping r = subrange(m);
                std::uint64_t prot = slot % 2 ? std::uint64_t{os::ProtRead}
                                              : std::uint64_t{os::ProtRead |
                                                              os::ProtWrite};
                timer.call("os.mprotect",
                           [&] { k.mprotect(p, r.start, r.length, prot); });
            } else {
                Mapping r = subrange(m);
                os::Madvise advice = slot % 2 ? os::Madvise::Huge
                                              : os::Madvise::NoHuge;
                timer.call("os.madvise",
                           [&] { k.madvise(p, r.start, r.length, advice); });
            }
        }
        if (i % ChurnThpEvery == 0)
            timer.call("thp.tick", [&] { k.thpTick(); });
        if (i % ChurnAutoNumaEvery == 0)
            timer.call("os.autonuma_tick",
                       [&] { k.autoNumaTick(0.005, numa); });
        if (i % ChurnReplayEvery == 0)
            replay(timer, *u, *u->workload, ChurnReplayOps, tally);
    }
    KernelEvents events = flatten(timer, *u);
    it.accesses = u->ctx->totals().accesses;
    timer.bodyEnd();

    recordCounts(it, *u, tally, populated, events);
    checkMachine(it, *u);

    timer.bodyBegin();
    timer.call("snapshot.finalize", [&] { u->finalize(); });
    timer.bodyEnd();
}

/// @}

using WorkloadFn = void (*)(Timer &, Iteration &, std::uint64_t);

WorkloadFn
workloadByName(const std::string &name)
{
    if (name == "populate-4k")
        return runPopulate4k;
    if (name == "replay-ms")
        return runReplayMs;
    if (name == "vma-churn")
        return runVmaChurn;
    return nullptr;
}

/// @name JSON output
/// @{

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
printIteration(const Iteration &it)
{
    std::printf("{\"warmup\":%s,\"traced\":%s,\"aborted\":%s,"
                "\"setup_s\":%.9g,\"wall_s\":%.9g,\"cpu_s\":%.9g,"
                "\"accesses\":%llu,\"ops\":%llu,\"failures\":[",
                it.warmup ? "true" : "false", it.traced ? "true" : "false",
                it.aborted ? "true" : "false",
                it.setupS, it.wallS, it.cpuS,
                static_cast<unsigned long long>(it.accesses),
                static_cast<unsigned long long>(it.ops));
    for (std::size_t i = 0; i < it.failures.size(); ++i)
        std::printf("%s%s", i ? "," : "", jsonString(it.failures[i]).c_str());
    std::printf("],\"counts\":{");
    for (std::size_t i = 0; i < it.counts.size(); ++i)
        std::printf("%s%s:%.17g", i ? "," : "",
                    jsonString(it.counts[i].first).c_str(),
                    it.counts[i].second);
    std::printf("},\"calls_us\":{");
    bool first = true;
    for (const auto &[name, samples] : it.callUs) {
        std::printf("%s%s:[", first ? "" : ",", jsonString(name).c_str());
        for (std::size_t i = 0; i < samples.size(); ++i)
            std::printf("%s%.4f", i ? "," : "", samples[i]);
        std::printf("]");
        first = false;
    }
    std::printf("}}");
}

/// @}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload populate-4k|replay-ms|vma-churn "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--min-iters N]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    int min_iters = 3;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (flag == "--trace")
            trace = std::string(val) == "1";
        else if (flag == "--trace-out")
            trace_out = val;
        else if (flag == "--min-iters")
            min_iters = std::atoi(val);
        else
            return usage(argv[0]);
    }
    WorkloadFn run = workloadByName(workload);
    if (!run || argc % 2 == 0 || seconds <= 0.0)
        return usage(argv[0]);

    SpanLog spans;
    Timer timer(spans);
    std::vector<Iteration> iters;

    // Iteration 0 warms host caches and the slab pools and is excluded
    // from every statistic; afterwards iterations repeat until the
    // measurement window closes. A traced run alternates untraced and
    // traced iterations so the tracing overhead is measured in-process.
    // Iterations rotate over the allowed CPUs (an untraced/traced pair
    // per CPU in a traced run), so a run samples every CPU it may use:
    // on a shared host their speeds differ for minutes at a time.
    std::vector<int> cpus = allowedCpus();
    const int per_cpu = trace ? 2 : 1;
    Clock::time_point window = Clock::now();
    for (int i = 0;; ++i) {
        if (i == 1)
            window = Clock::now();
        if (i - 1 >= min_iters &&
            std::chrono::duration<double>(Clock::now() - window).count() >=
                seconds)
            break;
        Iteration &it = iters.emplace_back();
        it.warmup = i == 0;
        it.traced = trace && i % 2 == 0 && i > 0;
        if (!cpus.empty())
            pinTo(cpus[static_cast<std::size_t>(
                (i == 0 ? 0 : (i - 1) / per_cpu) %
                static_cast<int>(cpus.size()))]);
        spans.beginIteration(i, it.traced);
        timer.begin(it);
        try {
            run(timer, it, seed);
        } catch (const std::exception &e) {
            // A SimError leaves the library in an unknown state: stop,
            // and let the document report the aborted calls as failed.
            it.failures.push_back(std::string("aborted: ") + e.what());
            it.aborted = true;
            break;
        }
    }

    if (trace && !trace_out.empty() && !spans.write(trace_out)) {
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
                "\"build_type\":%s,\"compiler\":%s,\"fuse\":%s,"
                "\"batch\":%s,\"peak_rss_kib\":%ld,\"iterations\":[",
                jsonString(workload).c_str(),
                static_cast<unsigned long long>(seed), trace ? 1 : 0,
                jsonString(HOSTBENCH_BUILD_TYPE).c_str(),
                jsonString(HOSTBENCH_COMPILER).c_str(),
                sim::fuseEnabled() ? "true" : "false",
                workloads::batchEnabled() ? "true" : "false", ru.ru_maxrss);
    for (std::size_t i = 0; i < iters.size(); ++i) {
        std::printf(i ? ",\n" : "\n");
        printIteration(iters[i]);
    }
    std::printf("\n]}\n");
    return 0;
}
