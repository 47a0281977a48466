/**
 * @file
 * The simulated OS kernel: process lifecycle, VMA system calls, demand
 * paging, THP, NUMA data placement, AutoNUMA hint faults, scheduling and
 * cross-socket process migration.
 *
 * The kernel never writes a PTE directly: every mutation goes through the
 * PV-Ops backend it was constructed with, which is the seam where Mitosis
 * plugs in (§5.2). Swapping the backend is the only difference between a
 * "stock Linux" and a "Mitosis" kernel in MitoSim.
 */

#ifndef MITOSIM_OS_KERNEL_H
#define MITOSIM_OS_KERNEL_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/check/vmcheck.h"
#include "src/os/process.h"
#include "src/os/scheduler.h"
#include "src/os/thp/thp.h"
#include "src/pt/operations.h"
#include "src/pvops/pvops.h"
#include "src/sim/machine.h"

namespace mitosim::os
{

class Kernel;

/** AutoNUMA: hint-fault driven data-page migration (data pages only —
 *  "page-table pages were never migrated", §3.1 observation 4). */
class AutoNuma
{
  public:
    struct Stats
    {
        std::uint64_t pagesScanned = 0;
        std::uint64_t hintsPlaced = 0;
        std::uint64_t hintFaults = 0;
        std::uint64_t pagesMigrated = 0;
        std::uint64_t migrationFailures = 0;
    };

    explicit AutoNuma(Kernel &kernel) : k(kernel) {}

    /**
     * Periodic scan: mark a random @p fraction of present leaves with the
     * NUMA hint bit so the next touch faults and reveals the accessor.
     */
    void scan(Process &proc, double fraction, Rng &rng);

    /**
     * Service a hint fault at @p va from @p core: clear the hint and
     * migrate the data page towards the accessing socket if remote.
     */
    Cycles onHintFault(Process &proc, CoreId core, VirtAddr va);

    const Stats &stats() const { return stats_; }

    /** Snapshot restore: adopt the cumulative counters of @p src. */
    void cloneStateFrom(const AutoNuma &src) { stats_ = src.stats_; }

  private:
    Kernel &k;
    Stats stats_;
};

/** A mapped range returned by mmap. */
struct Region
{
    VirtAddr start = 0;
    std::uint64_t length = 0;

    VirtAddr end() const { return start + length; }
};

/** Options for Kernel::mmap. */
struct MmapOptions
{
    bool populate = false; //!< MAP_POPULATE: fault everything in eagerly
    bool thp = false;      //!< region is THP-eligible (2 MB pages)
    std::uint64_t prot = ProtRead | ProtWrite;
    CoreId populateCore = -1; //!< first-touch context; -1 = home socket
};

/** madvise() advice values the kernel understands. */
enum class Madvise
{
    Huge,   //!< MADV_HUGEPAGE: make the range THP-eligible
    NoHuge, //!< MADV_NOHUGEPAGE: stop backing the range with 2 MB pages
};

/** Kernel-wide construction-time knobs. */
struct KernelConfig
{
    /**
     * Core scheduling: the default is the seed's pinning (one thread
     * per core, flush-all CR3 loads); sched.timeShared opts into the
     * run-queue scheduler with ASID-tagged context switches.
     */
    SchedulerConfig sched;

    /**
     * THP lifecycle: khugepaged collapse, kcompactd compaction and the
     * partial-op huge-page split path. All off by default — a default
     * kernel is charge-identical to one without the subsystem.
     */
    thp::ThpConfig thp;

    /**
     * vmcheck: whole-machine invariant checking at syscall/dispatch/THP
     * checkpoints. Off by default (zero cost, zero metric impact); the
     * MITOSIM_CHECK environment overrides whatever is set here.
     */
    check::CheckConfig check;
};

/** The kernel. */
class Kernel
{
  public:
    /**
     * Boot on @p machine: the kernel binds itself as the machine's fault
     * handler, so fatal() if another live kernel already has. The
     * destructor unbinds it, and a new kernel may then boot there.
     */
    Kernel(sim::Machine &machine, pvops::PvOps &backend);
    Kernel(sim::Machine &machine, pvops::PvOps &backend,
           const KernelConfig &config);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /// @name Process lifecycle
    /// @{
    Process &createProcess(const std::string &name, SocketId home_socket);
    void destroyProcess(Process &proc);

    /**
     * End-of-run teardown for @p proc, valid only when the whole
     * Machine is about to be destroyed (the last statement of a bench
     * job, after every metric was recorded). Skips the simulated
     * bookkeeping destroyProcess exists for — the per-leaf data-frame
     * frees with their cache invalidations and the page-table tree
     * teardown — because nothing can observe the machine afterwards;
     * for a multi-GiB 4 KB-mapped process that sweep is millions of
     * host operations of pure accounting. With vmcheck active it
     * falls back to destroyProcess: the checker's frame ledger must
     * see every free to stay balanced through atEndOfRun().
     */
    void finalizeProcess(Process &proc);

    /**
     * Snapshot restore: deep-copy the OS state of @p src into this
     * freshly constructed kernel — processes (address spaces, VMAs,
     * threads), scheduler queues/ASIDs, THP cursors, AutoNUMA and
     * checker ledgers, pid/tid counters. The machine must already have
     * been restored (Machine::cloneStateFrom) so the copied roots and
     * residencies reference live frames. The kernel's own config
     * (daemon settings, scheduler mode) is kept: a fork may diverge
     * from its donor in everything that does not act during populate.
     */
    void cloneStateFrom(const Kernel &src);

    Process *findProcess(ProcId pid);

    /**
     * Process currently *resident* on @p core (its CR3 loaded). Under
     * pinning this is the core's owner; under the time-sharing
     * scheduler it is whichever tenant ran most recently, and nullptr
     * for a core whose queue exists but never dispatched.
     */
    Process *processOnCore(CoreId core);
    SocketId homeSocket(const Process &proc) const;

    /** Sockets on which @p proc has threads assigned (or pinned). */
    SocketMask socketsOf(const Process &proc) const;
    /// @}

    /// @name VMA system calls
    /// @{
    Region mmap(Process &proc, std::uint64_t length,
                const MmapOptions &opts,
                pvops::KernelCost *cost = nullptr);

    /**
     * MAP_FIXED: map at exactly @p start (page aligned, must not overlap
     * an existing VMA). Used by micro-benchmarks that repeatedly remap
     * the same region, and by allocators with address requirements.
     */
    Region mmapFixed(Process &proc, VirtAddr start, std::uint64_t length,
                     const MmapOptions &opts,
                     pvops::KernelCost *cost = nullptr);

    void munmap(Process &proc, VirtAddr start, std::uint64_t length,
                pvops::KernelCost *cost = nullptr);

    void mprotect(Process &proc, VirtAddr start, std::uint64_t length,
                  std::uint64_t prot, pvops::KernelCost *cost = nullptr);

    /**
     * Toggle THP eligibility over [start, start + length) after mmap
     * (madvise(MADV_HUGEPAGE / MADV_NOHUGEPAGE)). VMAs split/merge at
     * the exact boundaries through the tree ops; a huge page straddling
     * a boundary is demoted first so no 2 MB mapping ever spans two
     * VMAs (the lifetime-coupling hazard Vma::mergeableWith documents).
     */
    void madvise(Process &proc, VirtAddr start, std::uint64_t length,
                 Madvise advice, pvops::KernelCost *cost = nullptr);

    /** Touch every page of a range from @p core (first-touch context). */
    void populate(Process &proc, VirtAddr start, std::uint64_t length,
                  CoreId core, pvops::KernelCost *cost = nullptr);
    /// @}

    /// @name Threads and scheduling
    /// @{

    /**
     * Start a new thread on @p core: pinned mode claims the core (it
     * must be free) and loads CR3; time-shared mode joins the core's
     * run queue. Returns the tid.
     */
    int spawnThread(Process &proc, CoreId core);

    /**
     * Start a new thread on @p socket. Pinned mode needs a free core
     * and returns -1 when the socket is full (the seed fatal()ed);
     * time-shared mode enqueues on the least-loaded core and cannot
     * fail.
     */
    [[nodiscard]] int spawnThreadOnSocket(Process &proc, SocketId socket);

    /**
     * Move every thread of @p proc to @p target. Optionally migrates all
     * data pages (what stock NUMA balancing achieves over time); informs
     * the PV-Ops backend so Mitosis can migrate the page-tables (§5.5).
     *
     * @return false — with no state changed — when pinned mode cannot
     *         seat every thread on @p target (the seed fatal()ed with
     *         threads half moved). Time-shared mode always succeeds.
     */
    [[nodiscard]] bool migrateProcess(Process &proc, SocketId target,
                                      bool migrate_data,
                                      pvops::KernelCost *cost = nullptr);

    /**
     * Re-sync cores after @p proc's address space changed underneath
     * them (replication-mask changes, migration): pinned mode reloads
     * each thread core's CR3 with a full flush (seed behaviour);
     * time-shared mode first drops the process's tagged TLB/PWC
     * entries on every core — stale survivors could reference frames
     * the change just freed — then reloads the resident cores.
     */
    void reloadContexts(Process &proc);

    /** The core scheduler (run queues, ASIDs, dispatch stats). */
    Scheduler &scheduler() { return sched; }
    const Scheduler &scheduler() const { return sched; }
    /// @}

    /// @name Policy knobs
    /// @{
    void setDataPolicy(Process &proc, DataPolicy policy,
                       SocketId fixed_socket = 0);
    void setPtPlacement(Process &proc, pt::PtPlacement placement,
                        SocketId fixed_socket = 0);
    void enableAutoNuma(Process &proc, bool on);
    /// @}

    /** One AutoNUMA period: scan every opted-in process. */
    void autoNumaTick(double sample_fraction, Rng &rng);

    /**
     * One THP daemon period: kcompactd reconstitutes 2 MB blocks, then
     * khugepaged collapses eligible ranges, over every live process.
     * No-op unless KernelConfig::thp enabled a daemon.
     */
    void thpTick();

    /** The THP lifecycle manager (collapse/split/compact mechanics). */
    thp::ThpManager &thp() { return thpMgr; }
    const thp::ThpManager &thp() const { return thpMgr; }

    /**
     * The invariant checker, or nullptr when checking is off (the
     * default). Drivers call checker()->atEndOfRun() before teardown
     * and copy checker()->stats() into the per-job report metrics
     * (check_*).
     */
    check::Checker *checker() { return chk.get(); }

    /** Every live process, in creation order (vmcheck sweeps these). */
    std::vector<Process *> liveProcesses()
    {
        std::vector<Process *> list;
        list.reserve(procs.size());
        for (auto &p : procs)
            list.push_back(p.get());
        return list;
    }

    /// @name Internals exposed for the Mitosis manager and analysis
    /// @{
    pt::PageTableOps &ptOps() { return ops; }
    pvops::PvOps &backend() { return ops.backend(); }
    sim::Machine &machine() { return mach; }
    AutoNuma &autoNuma() { return autonuma; }

    /** Invalidate @p va in the TLB/PWC of every core running @p proc. */
    void shootdown(Process &proc, VirtAddr va, pvops::KernelCost *cost);

    /** Full TLB flush on every core running @p proc. */
    void flushProcess(Process &proc, pvops::KernelCost *cost);

    /**
     * One shootdown decision per range op: invalidate the (≤ threshold)
     * collected @p vas individually, or flush every core's TLB outright
     * when @p pages exceeds the single-page-flush ceiling. Exactly one
     * IPI round (TlbShootdownCost) is charged to @p cost when any page
     * was touched — the seed charged this blindly at each call site
     * while its per-page shootdowns ran uncharged.
     */
    void shootdownRange(Process &proc, const std::vector<VirtAddr> &vas,
                        std::uint64_t pages, pvops::KernelCost *cost);
    /// @}

    /** Fault service routine registered with the Machine. */
    Cycles handleFault(CoreId core, const sim::FaultRequest &req);

  private:
    friend class AutoNuma;

    /**
     * Demand-fault @p va into @p proc from @p core. @p mapped_size (if
     * non-null) reports what was installed, so range loops can step
     * without re-walking the tree.
     */
    bool faultIn(Process &proc, CoreId core, VirtAddr va,
                 pvops::KernelCost &cost,
                 PageSizeKind *mapped_size = nullptr);

    /**
     * Can a fault at @p va install a 2 MB page? The aligned block must
     * lie inside the THP-eligible @p vma and its L2 slot must be vacant
     * (pmd_none), so nothing in the block is mapped yet. Uncharged.
     */
    bool hugeFits(const Process &proc, const Vma &vma, VirtAddr va) const;

    /**
     * Populate one VMA-covered subrange of a populate() request. 4 KB
     * pages stream through PageTableOps::mapRange4K; in a THP-eligible
     * VMA each 2 MB chunk that hugeFits() first faults its head page in
     * (one faultIn per 2 MB when huge pages are available) and streams
     * the rest only if that fell back to 4 KB. Charges, allocation
     * order and counters equal one faultIn per page.
     */
    void populateVmaRange(Process &proc, const Vma &vma, VirtAddr start,
                          VirtAddr end, CoreId core,
                          pvops::KernelCost &cost);

    SocketId chooseDataSocket(Process &proc, VirtAddr va,
                              SocketId faulting_socket, bool large);

    /**
     * Allocate the 4 KB data page a fault at @p va maps: on the data
     * policy's socket, else on any socket. Charges the allocation and
     * the zeroing. Shared by faultIn's 4 KB branch and populate's
     * stream, so the two allocate and charge alike.
     * @return the frame, or nothing when memory is exhausted.
     */
    std::optional<Pfn> allocDataPage(Process &proc, VirtAddr va,
                                     SocketId faulting_socket,
                                     pvops::KernelCost &cost);

    /** Free the data frame behind a leaf (4 KB or 2 MB). */
    void freeLeafData(pt::Pte leaf, PageSizeKind size);

    /**
     * Demote the huge page straddling @p boundary, if one exists (the
     * boundary is interior to a mapped 2 MB range). Used by madvise
     * always, and by munmap/mprotect when ThpConfig::splitPartial opts
     * out of the seed's whole-leaf zap.
     */
    void splitStraddlingHuge(Process &proc, VirtAddr boundary,
                             pvops::KernelCost *cost);

    /**
     * Cores an invalidation of @p proc's mappings must reach: exactly
     * the pinned thread cores (the seed's targeting), or — time-shared,
     * where descheduled tenants leave tagged entries behind — every
     * core, like Linux's mm_cpumask broadcast over every CPU the mm
     * ever ran on.
     */
    template <typename Fn>
    void
    forEachShootdownCore(Process &proc, Fn &&fn)
    {
        if (!sched.timeShared()) {
            for (const auto &t : proc.threads())
                fn(mach.core(t.core));
        } else {
            for (CoreId c = 0; c < mach.numCores(); ++c)
                fn(mach.core(c));
        }
    }

    /** Syscall-boundary vmcheck checkpoint; no-op when checking is off. */
    void
    checkpoint(const char *what)
    {
        if (chk)
            chk->atSyscall(what);
    }

    sim::Machine &mach;
    pt::PageTableOps ops;
    AutoNuma autonuma;
    Scheduler sched;
    thp::ThpManager thpMgr;
    std::unique_ptr<check::Checker> chk;

    /// @name Observability handles (registered once in the ctor)
    /// @{
    obs::Counter *mFaultNotPresent = nullptr;
    obs::Counter *mFaultNumaHint = nullptr;
    obs::Counter *mFaultProtection = nullptr;
    obs::Histogram *mFaultCycles = nullptr;
    obs::Counter *mShootdowns = nullptr;
    obs::Counter *mPopulateStream = nullptr; //!< leaves via mapRange4K
    obs::Counter *mPopulateFault = nullptr;  //!< leaves via faultIn
    /// @}

    std::vector<std::unique_ptr<Process>> procs;
    std::vector<SocketId> homeSockets; // parallel to procs by pid index
    ProcId nextPid = 1;
    int nextTid = 1;

    /**
     * Linux flushes the whole TLB instead of single pages beyond a
     * small threshold (tlb_single_page_flush_ceiling); we do the same.
     */
    static constexpr std::uint64_t FlushAllThresholdPages = 33;
};

} // namespace mitosim::os

#endif // MITOSIM_OS_KERNEL_H
