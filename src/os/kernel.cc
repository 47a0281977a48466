#include "kernel.h"

#include <algorithm>
#include <functional>

#include "src/base/logging.h"
#include "src/pvops/costs.h"

namespace mitosim::os
{

using pvops::KernelCost;

namespace
{

/** Leaf flags of a page mapped under @p vma (PteUser, PteWrite). */
std::uint64_t
leafFlags(const Vma &vma)
{
    return vma.prot & ProtWrite ? pt::PteUser | pt::PteWrite : pt::PteUser;
}

} // namespace

Kernel::Kernel(sim::Machine &machine, pvops::PvOps &backend)
    : Kernel(machine, backend, KernelConfig{})
{
}

Kernel::Kernel(sim::Machine &machine, pvops::PvOps &backend,
               const KernelConfig &config)
    : mach(machine), ops(machine.physmem(), backend), autonuma(*this),
      sched(machine, backend, config.sched),
      thpMgr(*this, config.thp)
{
    if (mach.hasFaultHandler())
        fatal("machine already has a kernel (one kernel per machine)");

    obs::MetricsRegistry &mr = mach.metrics();
    mFaultNotPresent = &mr.counter("kernel_faults", {{"kind", "not_present"}});
    mFaultNumaHint = &mr.counter("kernel_faults", {{"kind", "numa_hint"}});
    mFaultProtection = &mr.counter("kernel_faults", {{"kind", "protection"}});
    mFaultCycles = &mr.histogram("kernel_fault_cycles");
    mShootdowns = &mr.counter("kernel_tlb_shootdowns");
    ops.attachDescentCounters(
        &mr.counter("kernel_pt_descents", {{"path", "cursor"}}),
        &mr.counter("kernel_pt_descents", {{"path", "full"}}));
    mPopulateStream =
        &mr.counter("kernel_populate_pages", {{"path", "stream"}});
    mPopulateFault = &mr.counter("kernel_populate_pages", {{"path", "fault"}});

    mach.setFaultHandler(
        [](void *ctx, CoreId core, const sim::FaultRequest &req) {
            return static_cast<Kernel *>(ctx)->handleFault(core, req);
        },
        this);

    check::CheckConfig cc = check::CheckConfig::fromEnv(config.check);
    if (cc.enabled) {
        chk = std::make_unique<check::Checker>(*this, cc);
        sched.setDispatchHook([this] { chk->atDispatch(); });
    }
}

Kernel::~Kernel()
{
    // Tear down any still-live processes so physical memory balances.
    while (!procs.empty())
        destroyProcess(*procs.back());
    mach.setFaultHandler(nullptr, nullptr);
}

Process &
Kernel::createProcess(const std::string &name, SocketId home_socket)
{
    MITOSIM_ASSERT(home_socket >= 0 &&
                   home_socket < mach.numSockets());
    auto proc = std::make_unique<Process>(nextPid++, name);
    Process &ref = *proc;
    ref.asid = sched.assignAsid();
    ref.asidGeneration = sched.generationOf(ref.asid);
    KernelCost cost;
    if (!ops.createRoot(ref.roots(), ref.id(), home_socket, &cost))
        fatal("out of memory creating root table for '%s'", name.c_str());
    procs.push_back(std::move(proc));
    homeSockets.push_back(home_socket);
    checkpoint("createProcess");
    return ref;
}

void
Kernel::destroyProcess(Process &proc)
{
    // Free all data frames referenced by the primary tree.
    std::vector<std::pair<pt::Pte, PageSizeKind>> leaves;
    ops.forEachLeaf(proc.roots(),
                    [&](VirtAddr, pt::PteLoc, pt::Pte pte,
                        PageSizeKind size) {
                        leaves.emplace_back(pte, size);
                    });
    for (const auto &[pte, size] : leaves)
        freeLeafData(pte, size);

    // Dequeue the threads and park every core still holding this
    // address space (the seed left dead CR3s loaded — see scheduler.h)
    // — before ops.destroy wipes the RootSet the cores are matched
    // against and frees the frames their CR3s point into.
    sched.removeProcess(proc);
    thpMgr.onProcessDestroyed(proc.id());

    KernelCost cost;
    ops.destroy(proc.roots(), &cost);

    auto it = std::find_if(procs.begin(), procs.end(),
                           [&](const auto &p) { return p.get() == &proc; });
    MITOSIM_ASSERT(it != procs.end(), "destroyProcess: unknown process");
    homeSockets.erase(homeSockets.begin() + (it - procs.begin()));
    procs.erase(it);
    checkpoint("destroyProcess");
}

void
Kernel::finalizeProcess(Process &proc)
{
    if (chk) {
        // The checker's ledger tracks every frame; it must watch the
        // frees or atEndOfRun() reports leaks that never were.
        destroyProcess(proc);
        return;
    }
    sched.removeProcess(proc);
    thpMgr.onProcessDestroyed(proc.id());
    auto it = std::find_if(procs.begin(), procs.end(),
                           [&](const auto &p) { return p.get() == &proc; });
    MITOSIM_ASSERT(it != procs.end(), "finalizeProcess: unknown process");
    homeSockets.erase(homeSockets.begin() + (it - procs.begin()));
    procs.erase(it);
}

void
Kernel::cloneStateFrom(const Kernel &src)
{
    MITOSIM_ASSERT(procs.empty(),
                   "cloneStateFrom: target kernel already has processes");
    MITOSIM_ASSERT(sched.timeShared() == src.sched.timeShared(),
                   "cloneStateFrom: scheduler mode mismatch");
    MITOSIM_ASSERT(static_cast<bool>(chk) == static_cast<bool>(src.chk),
                   "cloneStateFrom: vmcheck enablement mismatch");
    procs.reserve(src.procs.size());
    for (const auto &p : src.procs)
        procs.push_back(std::unique_ptr<Process>(new Process(*p)));
    homeSockets = src.homeSockets;
    nextPid = src.nextPid;
    nextTid = src.nextTid;
    sched.cloneStateFrom(src.sched);
    thpMgr.cloneStateFrom(src.thpMgr);
    autonuma.cloneStateFrom(src.autonuma);
    if (chk)
        chk->cloneStateFrom(*src.chk);
}

Process *
Kernel::findProcess(ProcId pid)
{
    for (auto &p : procs) {
        if (p->id() == pid)
            return p.get();
    }
    return nullptr;
}

Process *
Kernel::processOnCore(CoreId core)
{
    MITOSIM_ASSERT(core >= 0 && core < mach.numCores());
    ProcId pid = sched.residentPid(core);
    return pid < 0 ? nullptr : findProcess(pid);
}

SocketMask
Kernel::socketsOf(const Process &proc) const
{
    SocketMask mask;
    for (const auto &t : proc.threads())
        mask.set(mach.topology().socketOfCore(t.core));
    return mask;
}

SocketId
Kernel::homeSocket(const Process &proc) const
{
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].get() == &proc)
            return homeSockets[i];
    }
    panic("homeSocket: unknown process");
}

Region
Kernel::mmap(Process &proc, std::uint64_t length, const MmapOptions &opts,
             KernelCost *cost)
{
    MITOSIM_ASSERT(length > 0, "mmap of zero length");
    std::uint64_t rounded = alignUp(length, PageSize);
    return mmapFixed(proc, proc.reserveRange(rounded), rounded, opts,
                     cost);
}

Region
Kernel::mmapFixed(Process &proc, VirtAddr start, std::uint64_t length,
                  const MmapOptions &opts, KernelCost *cost)
{
    MITOSIM_ASSERT(length > 0, "mmap of zero length");
    MITOSIM_ASSERT((start & (PageSize - 1)) == 0, "mmapFixed: unaligned");
    std::uint64_t rounded = alignUp(length, PageSize);
    if (proc.overlapsRange(start, start + rounded))
        fatal("mmapFixed: range overlaps an existing VMA");

    Vma vma;
    vma.start = start;
    vma.end = start + rounded;
    vma.prot = opts.prot;
    vma.thpEnabled = opts.thp;
    proc.insertVma(vma);

    if (cost)
        cost->charge(pvops::VmaOpFixedCost);

    if (opts.populate) {
        CoreId core = opts.populateCore;
        if (core < 0)
            core = mach.topology().firstCoreOf(homeSocket(proc));
        populate(proc, start, rounded, core, cost);
    }
    checkpoint("mmap");
    return Region{start, rounded};
}

// Inline: it sits on the demand-fault path, where an out-of-line call
// measured slower (EXPERIMENTS.md, "One entry point per job").
inline std::optional<Pfn>
Kernel::allocDataPage(Process &proc, VirtAddr va, SocketId faulting_socket,
                      KernelCost &cost)
{
    auto &physmem = mach.physmem();
    SocketId target = chooseDataSocket(proc, va, faulting_socket, false);
    auto pfn = physmem.allocData(target, proc.id());
    if (!pfn)
        pfn = physmem.allocDataAny(target, proc.id());
    if (pfn)
        cost.charge(pvops::PageAllocCost + pvops::PageZeroCost);
    return pfn;
}

void
Kernel::populateVmaRange(Process &proc, const Vma &vma, VirtAddr start,
                         VirtAddr end, CoreId core, KernelCost &cost)
{
    // 4 KB pages go through the leaf-table cursor: one descent per
    // table instead of three per page, with the mapping streamed
    // through the backend's batched hook. The fill is faultIn's 4 KB
    // branch: the fault charge, then allocDataPage, then the counter;
    // mapRange4K allocates any missing table after the data frame.
    SocketId faulting_socket = mach.topology().socketOfCore(core);
    std::uint64_t flags = leafFlags(vma) | pt::PtePresent;
    const std::function<pt::Pte(VirtAddr)> fill = [&](VirtAddr va) {
        cost.charge(pvops::FaultFixedCost);
        auto pfn = allocDataPage(proc, va, faulting_socket, cost);
        if (!pfn)
            fatal("populate: out of memory at va=0x%llx",
                  (unsigned long long)va);
        ++proc.residentPages;
        return pt::Pte::make(*pfn, flags);
    };
    auto stream = [&](VirtAddr from, VirtAddr to) {
        mPopulateStream->inc(ops.mapRange4K(proc.roots(), proc.id(), from,
                                            to, proc.ptPolicy,
                                            faulting_socket, fill, &cost));
    };

    if (!vma.thpEnabled) {
        stream(start, end);
        return;
    }

    // THP ranges decide once per 2 MB chunk. A chunk that can take a
    // huge page (hugeFits: nothing in it is mapped yet) faults its
    // first page in, exactly as the per-page fault path would. If that
    // installs 2 MB the chunk is done. Otherwise the attempt failed
    // (fragmentation) and the head took a 4 KB page; every later page
    // of the chunk would then take faultIn's 4 KB branch, which is what
    // the stream reproduces. Chunks that cannot take a huge page at all
    // stream whole.
    for (VirtAddr va = start; va < end;) {
        VirtAddr chunk_end =
            std::min(end, alignDown(va, LargePageSize) + LargePageSize);
        if (hugeFits(proc, vma, va)) {
            PageSizeKind size;
            if (!faultIn(proc, core, va, cost, &size))
                fatal("populate: out of memory at va=0x%llx",
                      (unsigned long long)va);
            mPopulateFault->inc();
            va = size == PageSizeKind::Large2M ? chunk_end : va + PageSize;
        }
        if (va < chunk_end)
            stream(va, chunk_end);
        va = chunk_end;
    }
}

void
Kernel::populate(Process &proc, VirtAddr start, std::uint64_t length,
                 CoreId core, KernelCost *cost)
{
    KernelCost local;
    KernelCost &c = cost ? *cost : local;
    VirtAddr end = start + length;

    // Touching a page no VMA covers is a segfault, as it is for
    // faultIn: populate stops at the first page of such a gap.
    auto segfault = [&](VirtAddr va) {
        panic("segfault: pid %d touched unmapped va=0x%llx", proc.id(),
              (unsigned long long)va);
    };

    // Collect the VMA-covered subranges first (populate never mutates
    // the VMA tree), then sweep them in address order.
    struct Segment
    {
        const Vma *vma;
        VirtAddr start;
        VirtAddr end;
    };
    std::vector<Segment> segments;
    proc.forEachVmaIn(start, end, [&](const Vma &v) {
        segments.push_back({&v, std::max(start, v.start),
                            std::min(end, v.end)});
    });

    VirtAddr at = start;
    for (const Segment &seg : segments) {
        if (at < seg.start)
            segfault(at);
        populateVmaRange(proc, *seg.vma, seg.start, seg.end, core, c);
        at = seg.end;
    }
    if (at < end)
        segfault(at);
    checkpoint("populate");
}

void
Kernel::munmap(Process &proc, VirtAddr start, std::uint64_t length,
               KernelCost *cost)
{
    MITOSIM_ASSERT((start & (PageSize - 1)) == 0, "munmap: unaligned");
    std::uint64_t rounded = alignUp(length, PageSize);
    VirtAddr end = start + rounded;

    if (cost)
        cost->charge(pvops::VmaOpFixedCost);

    // Seed semantics zapped a partially-covered huge leaf whole (2 MB
    // of data for a one-page unmap); the gated split path demotes it
    // to 4 KB PTEs first so only the requested range goes away.
    if (thpMgr.config().splitPartial) {
        splitStraddlingHuge(proc, start, cost);
        splitStraddlingHuge(proc, end, cost);
    }

    std::vector<VirtAddr> invalidate;
    std::uint64_t pages = ops.unmapRange(
        proc.roots(), start, end,
        [&](VirtAddr va, pt::Pte old, PageSizeKind size) {
            freeLeafData(old, size);
            if (cost)
                cost->charge(pvops::PageFreeCost);
            if (invalidate.size() <= FlushAllThresholdPages)
                invalidate.push_back(std::max(va, start));
        },
        cost);
    shootdownRange(proc, invalidate, pages, cost);

    proc.removeVmaRange(start, end);
    checkpoint("munmap");
}

void
Kernel::mprotect(Process &proc, VirtAddr start, std::uint64_t length,
                 std::uint64_t prot, KernelCost *cost)
{
    MITOSIM_ASSERT((start & (PageSize - 1)) == 0, "mprotect: unaligned");
    std::uint64_t rounded = alignUp(length, PageSize);
    VirtAddr end = start + rounded;

    if (cost)
        cost->charge(pvops::VmaOpFixedCost);

    // As in munmap: don't rewrite 2 MB of permissions for a partial
    // request — demote the boundary huge pages first when the split
    // path is on (the VMA tree splits at the same boundaries below).
    if (thpMgr.config().splitPartial) {
        splitStraddlingHuge(proc, start, cost);
        splitStraddlingHuge(proc, end, cost);
    }

    std::uint64_t set = 0;
    std::uint64_t clear = 0;
    if (prot & ProtWrite)
        set |= pt::PteWrite;
    else
        clear |= pt::PteWrite;

    std::vector<VirtAddr> invalidate;
    std::uint64_t pages = ops.protectRange(
        proc.roots(), start, end, set, clear,
        [&](VirtAddr va, PageSizeKind) {
            if (invalidate.size() <= FlushAllThresholdPages)
                invalidate.push_back(std::max(va, start));
        },
        cost);
    shootdownRange(proc, invalidate, pages, cost);

    // Split partially covered VMAs so the metadata matches the PTEs
    // (the seed skipped them, leaving a stale prot).
    proc.protectVmaRange(start, end, prot);
    checkpoint("mprotect");
}

void
Kernel::splitStraddlingHuge(Process &proc, VirtAddr boundary,
                            KernelCost *cost)
{
    if ((boundary & (LargePageSize - 1)) == 0)
        return; // an aligned boundary cannot cut a huge page
    VirtAddr base = alignDown(boundary, LargePageSize);
    pt::WalkResult res = ops.walk(proc.roots(), base);
    if (!res.mapped || res.size != PageSizeKind::Large2M)
        return;
    if (!thpMgr.splitAt(proc, boundary, cost))
        fatal("out of memory splitting huge page at va=0x%llx",
              (unsigned long long)base);
}

void
Kernel::madvise(Process &proc, VirtAddr start, std::uint64_t length,
                Madvise advice, KernelCost *cost)
{
    MITOSIM_ASSERT((start & (PageSize - 1)) == 0, "madvise: unaligned");
    MITOSIM_ASSERT(length > 0, "madvise of zero length");
    std::uint64_t rounded = alignUp(length, PageSize);
    VirtAddr end = start + rounded;

    if (cost)
        cost->charge(pvops::VmaOpFixedCost);

    // A huge page straddling an eligibility boundary would couple the
    // two sides' lifetimes across the VMA split below; demote it
    // unconditionally (madvise is new API — no legacy charge parity).
    splitStraddlingHuge(proc, start, cost);
    splitStraddlingHuge(proc, end, cost);

    proc.adviseThpRange(start, end, advice == Madvise::Huge);
    checkpoint("madvise");
}

void
Kernel::thpTick()
{
    if (!thpMgr.enabled())
        return;
    thpMgr.tick(liveProcesses());
    if (chk)
        chk->atThpTick();
}

int
Kernel::spawnThread(Process &proc, CoreId core)
{
    MITOSIM_ASSERT(core >= 0 && core < mach.numCores());
    MITOSIM_ASSERT(sched.canAdmit(core), "core already occupied");
    Thread t;
    t.tid = nextTid++;
    t.core = core;
    proc.threads().push_back(t);
    sched.admitThread(proc,
                      static_cast<int>(proc.threads().size()) - 1);
    return t.tid;
}

int
Kernel::spawnThreadOnSocket(Process &proc, SocketId socket)
{
    CoreId core = sched.pickCore(socket);
    if (core < 0)
        return -1; // pinned mode, socket full: recoverable
    return spawnThread(proc, core);
}

bool
Kernel::migrateProcess(Process &proc, SocketId target, bool migrate_data,
                       KernelCost *cost)
{
    MITOSIM_ASSERT(target >= 0 && target < mach.numSockets());

    // Move the threads (pinned: re-pin, seed core-choice order;
    // time-shared: re-queue on the target's cores). A full target
    // socket fails cleanly before anything moved.
    if (!sched.migrateThreads(proc, target))
        return false;
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].get() == &proc)
            homeSockets[i] = target;
    }

    if (migrate_data) {
        // Collect first: migrating mutates the tree we iterate.
        struct Item
        {
            VirtAddr va;
            pt::Pte pte;
            PageSizeKind size;
        };
        std::vector<Item> items;
        ops.forEachLeaf(proc.roots(),
                        [&](VirtAddr va, pt::PteLoc, pt::Pte pte,
                            PageSizeKind size) {
                            items.push_back({va, pte, size});
                        });
        auto &physmem = mach.physmem();
        for (const auto &it : items) {
            if (physmem.socketOf(it.pte.pfn()) == target)
                continue;
            auto fresh = physmem.migrateData(it.pte.pfn(), target);
            if (!fresh)
                continue; // target full; leave the page behind
            pt::WalkResult cur = ops.walk(proc.roots(), it.va);
            MITOSIM_ASSERT(cur.mapped);
            int level = (it.size == PageSizeKind::Large2M) ? 2 : 1;
            backend().setPte(proc.roots(), cur.loc,
                             cur.leaf.withPfn(*fresh), level, cost);
            if (cost) {
                std::uint64_t frames =
                    (it.size == PageSizeKind::Large2M) ? FramesPerLargePage
                                                       : 1;
                cost->charge(pvops::PageCopyCost * frames);
            }
        }
    }

    // Tell the backend (Mitosis migrates the page-tables here, §5.5).
    backend().onProcessMigrated(proc.roots(), proc.id(), target, cost);

    // Fresh CR3 on the new cores (full flush on the old ones is implicit:
    // nothing runs there any more).
    reloadContexts(proc);
    if (cost)
        cost->charge(pvops::TlbShootdownCost);
    checkpoint("migrateProcess");
    return true;
}

void
Kernel::reloadContexts(Process &proc)
{
    if (!sched.timeShared()) {
        // Pinned: each thread owns its core; flush-all load, as seeded.
        for (const auto &t : proc.threads()) {
            SocketId s = mach.topology().socketOfCore(t.core);
            mach.core(t.core).loadCr3(backend().cr3For(proc.roots(), s),
                                      proc.asid, false);
        }
        return;
    }
    // Time-shared: a reload means the address space changed underneath
    // the tags — data pages moved to fresh frames (migrate_data), or
    // page-table pages were freed by the backend (§5.5 eager migration,
    // replication-mask shrink). Tagged TLB/PWC survivors anywhere —
    // including cores the process is *not* resident on — would point
    // into freed, recyclable frames, and no ASID-generation mismatch
    // protects against that (same owner, same generation). Drop them
    // all, then re-arm the resident cores.
    flushProcess(proc, nullptr);
    for (CoreId c : sched.residentCores(proc)) {
        SocketId s = mach.topology().socketOfCore(c);
        mach.core(c).loadCr3(backend().cr3For(proc.roots(), s), proc.asid,
                             sched.config().pcid);
    }
}

void
Kernel::setDataPolicy(Process &proc, DataPolicy policy,
                      SocketId fixed_socket)
{
    proc.dataPolicy = policy;
    proc.dataFixedSocket = fixed_socket;
}

void
Kernel::setPtPlacement(Process &proc, pt::PtPlacement placement,
                       SocketId fixed_socket)
{
    proc.ptPolicy.mode = placement;
    proc.ptPolicy.fixedSocket = fixed_socket;
}

void
Kernel::enableAutoNuma(Process &proc, bool on)
{
    proc.autoNumaEnabled = on;
}

void
Kernel::autoNumaTick(double sample_fraction, Rng &rng)
{
    for (auto &p : procs) {
        if (p->autoNumaEnabled)
            autonuma.scan(*p, sample_fraction, rng);
    }
}

void
Kernel::shootdown(Process &proc, VirtAddr va, KernelCost *cost)
{
    forEachShootdownCore(proc, [&](sim::Core &core) {
        core.tlb().invalidatePage(va);
        core.pwc().invalidate(va);
    });
    if (cost)
        cost->charge(pvops::TlbShootdownCost);
    mShootdowns->inc();
}

void
Kernel::flushProcess(Process &proc, KernelCost *cost)
{
    // Pinned: the seed's MOV-CR3-style full flush on the owned cores.
    // Time-shared: selective — drop only this tenant's tagged entries,
    // wherever they linger; the other tenants sharing the cores keep
    // theirs (INVPCID rather than a full flush).
    bool selective = sched.timeShared();
    forEachShootdownCore(proc, [&](sim::Core &core) {
        if (selective) {
            core.flushAsid(proc.asid);
        } else {
            core.tlb().flushAll();
            core.pwc().flushAll();
        }
    });
    if (cost) {
        cost->charge(pvops::TlbShootdownCost);
        // Uncosted calls are subsumed by a caller that reports its own
        // shootdown (e.g. shootdownRange's full-flush escalation).
        mShootdowns->inc();
    }
}

void
Kernel::shootdownRange(Process &proc, const std::vector<VirtAddr> &vas,
                       std::uint64_t pages, KernelCost *cost)
{
    if (pages == 0)
        return;
    if (pages > FlushAllThresholdPages) {
        // Beyond the single-page-flush ceiling one full flush is
        // cheaper than per-page invalidations (Linux's heuristic).
        flushProcess(proc, nullptr);
    } else {
        forEachShootdownCore(proc, [&](sim::Core &core) {
            // Pages of one 2 MB region share every PWC tag (va >> 21
            // and up), and nothing fills the PWC mid-loop, so a repeat
            // invalidation of the same region is a no-op: skip it.
            VirtAddr pwc_region = ~0ull;
            for (VirtAddr va : vas) {
                core.tlb().invalidatePage(va);
                if ((va >> LargePageShift) != pwc_region) {
                    core.pwc().invalidate(va);
                    pwc_region = va >> LargePageShift;
                }
            }
        });
    }
    // One IPI round per range op, attributed to the caller.
    if (cost)
        cost->charge(pvops::TlbShootdownCost);
    mShootdowns->inc();
}

SocketId
Kernel::chooseDataSocket(Process &proc, VirtAddr va,
                         SocketId faulting_socket, bool large)
{
    switch (proc.dataPolicy) {
      case DataPolicy::FirstTouch:
        return faulting_socket;
      case DataPolicy::Interleave: {
        unsigned shift = large ? LargePageShift : PageShift;
        return static_cast<SocketId>((va >> shift) %
                                     static_cast<std::uint64_t>(
                                         mach.numSockets()));
      }
      case DataPolicy::Fixed:
        return proc.dataFixedSocket;
    }
    return faulting_socket;
}

bool
Kernel::hugeFits(const Process &proc, const Vma &vma, VirtAddr va) const
{
    // The aligned block must lie inside a THP-eligible VMA, and Linux's
    // pmd_none rule applies: the L2 slot must be *vacant* — a range
    // already holding 4 KB mappings is promoted by khugepaged's
    // collapse, never by the fault handler, which would otherwise
    // orphan the live leaf table (and its data frames) and leave stale
    // PWC entries pointing into it. The probe is uncharged, so it runs
    // only where its answer is used.
    VirtAddr huge_base = alignDown(va, LargePageSize);
    if (!vma.thpEnabled || huge_base < vma.start ||
        huge_base + LargePageSize > vma.end)
        return false;
    Pfn dir = ops.descend(proc.roots(), huge_base, 2);
    return dir == InvalidPfn ||
           !pt::Pte{mach.physmem().tableView(
                        dir)[ptIndex(huge_base, PtLevel::L2)]}
                .present();
}

bool
Kernel::faultIn(Process &proc, CoreId core, VirtAddr va, KernelCost &cost,
                PageSizeKind *mapped_size)
{
    if (mapped_size)
        *mapped_size = PageSizeKind::Base4K;
    const Vma *vma = proc.findVma(va);
    if (!vma)
        panic("segfault: pid %d touched unmapped va=0x%llx", proc.id(),
              (unsigned long long)va);

    cost.charge(pvops::FaultFixedCost);
    SocketId faulting_socket = mach.topology().socketOfCore(core);
    auto &physmem = mach.physmem();

    std::uint64_t flags = leafFlags(*vma);

    // THP path: map a whole 2 MB page when one fits (falls back under
    // fragmentation, the Figure 11 effect).
    VirtAddr huge_base = alignDown(va, LargePageSize);
    if (hugeFits(proc, *vma, va)) {
        SocketId target = chooseDataSocket(proc, huge_base,
                                           faulting_socket, true);
        if (auto head = physmem.allocDataLarge(target, proc.id())) {
            cost.charge(pvops::PageAllocCost +
                        pvops::PageZeroCost * FramesPerLargePage);
            if (ops.map2M(proc.roots(), proc.id(), huge_base, *head, flags,
                          proc.ptPolicy, faulting_socket, &cost)) {
                proc.residentPages += FramesPerLargePage;
                if (mapped_size)
                    *mapped_size = PageSizeKind::Large2M;
                return true;
            }
            physmem.freeDataLarge(*head);
            return false;
        }
        // Fall through to a 4 KB mapping.
    }

    auto pfn = allocDataPage(proc, va, faulting_socket, cost);
    if (!pfn)
        return false;
    VirtAddr page_va = alignDown(va, PageSize);
    if (!ops.map4K(proc.roots(), proc.id(), page_va, *pfn, flags,
                   proc.ptPolicy, faulting_socket, &cost)) {
        physmem.freeData(*pfn);
        return false;
    }
    ++proc.residentPages;
    return true;
}

void
Kernel::freeLeafData(pt::Pte leaf, PageSizeKind size)
{
    auto &physmem = mach.physmem();
    if (size == PageSizeKind::Large2M)
        physmem.freeDataLarge(leaf.pfn());
    else
        physmem.freeData(leaf.pfn());
}

Cycles
Kernel::handleFault(CoreId core, const sim::FaultRequest &req)
{
    Process *proc = processOnCore(core);
    if (!proc)
        panic("fault on core %d with no process scheduled", core);

    KernelCost cost;
    SocketId fault_socket = mach.topology().socketOfCore(core);
    // Each case banks its cycles into a per-kind vmcheck bucket; the
    // conservation check verifies the buckets sum to the total banked
    // at return, so a future fault path cannot silently go uncharged.
    switch (req.kind) {
      case sim::WalkFault::NotPresent:
        mFaultNotPresent->inc();
        if (backend().onTranslationFault(proc->roots(), fault_socket,
                                         req.va, &cost)) {
            if (chk)
                chk->noteFaultCharge(check::FaultCharge::LazyDrain,
                                     cost.cycles);
            break; // lazy replica updates applied; the access retries
        }
        if (!faultIn(*proc, core, req.va, cost))
            fatal("out of memory demand-faulting va=0x%llx",
                  (unsigned long long)req.va);
        if (chk)
            chk->noteFaultCharge(check::FaultCharge::Demand, cost.cycles);
        break;

      case sim::WalkFault::NumaHint:
        mFaultNumaHint->inc();
        cost.charge(autonuma.onHintFault(*proc, core, req.va));
        if (chk)
            chk->noteFaultCharge(check::FaultCharge::NumaHint,
                                 cost.cycles);
        break;

      case sim::WalkFault::Protection: {
        mFaultProtection->inc();
        if (backend().onTranslationFault(proc->roots(), fault_socket,
                                         req.va, &cost)) {
            if (chk)
                chk->noteFaultCharge(check::FaultCharge::LazyDrain,
                                     cost.cycles);
            break; // a pending permission upgrade was applied
        }
        const Vma *vma = proc->findVma(req.va);
        if (!vma || !(vma->prot & ProtWrite))
            panic("write to read-only mapping at va=0x%llx",
                  (unsigned long long)req.va);
        // VMA allows writing but the PTE lagged (e.g. after mprotect
        // round-trip): upgrade the leaf.
        cost.charge(pvops::FaultFixedCost);
        VirtAddr page = alignDown(req.va, PageSize);
        ops.protectRange(proc->roots(), page, page + PageSize, pt::PteWrite,
                         0, {}, &cost);
        shootdown(*proc, req.va, &cost);
        if (chk)
            chk->noteFaultCharge(check::FaultCharge::Upgrade,
                                 cost.cycles);
        break;
      }

      case sim::WalkFault::None:
        panic("handleFault called with WalkFault::None");
    }
    if (chk)
        chk->noteFaultTotal(cost.cycles);
    mFaultCycles->observe(cost.cycles);
    return cost.cycles;
}

} // namespace mitosim::os
