/**
 * @file
 * ThpManager core: the promote (collapse) and demote (split) mechanics
 * shared by khugepaged, madvise and the partial-unmap split path. The
 * daemon loops live in khugepaged.cc / kcompactd.cc.
 */

#include "thp.h"

#include <array>
#include <utility>

#include "src/base/logging.h"
#include "src/os/kernel.h"
#include "src/pvops/costs.h"

namespace mitosim::os::thp
{

using pvops::KernelCost;

void
ThpManager::ensureObs()
{
    if (mCollapses)
        return;
    obs::MetricsRegistry &mr = k.machine().metrics();
    mCollapses = &mr.counter("thp_collapses");
    mSplits = &mr.counter("thp_splits");
    mPagesMoved = &mr.counter("thp_compaction_pages_moved");
    mBlocksReclaimed = &mr.counter("thp_compaction_blocks_reclaimed");
    mRmapBuilds = &mr.counter("thp_compaction_rmap_builds");
    mRmapEntries = &mr.counter("thp_compaction_rmap_entries");
    mCollapseFailedNoBlock = &mr.counter("thp_collapse_failed_no_block");
    mCompactionFailures = &mr.counter("thp_compaction_failures");
    mRangesScanned = &mr.counter("thp_ranges_scanned");
    mDaemonCycles = &mr.counter("thp_daemon_cycles");
}

void
ThpManager::tick(const std::vector<Process *> &procs)
{
    ensureObs();
    KernelCost cost;
    if (cfg.kcompactd)
        compactTick(procs, &cost);
    if (cfg.khugepaged) {
        for (Process *p : procs)
            scanProcess(*p, &cost);
    }
    stats_.daemonCycles += cost.cycles;
    mDaemonCycles->inc(cost.cycles);
}

bool
ThpManager::collapseAt(Process &proc, VirtAddr va2m, KernelCost *cost)
{
    MITOSIM_ASSERT((va2m & (LargePageSize - 1)) == 0,
                   "collapseAt: va not 2MB aligned");
    const Vma *vma = proc.findVma(va2m);
    if (!vma || !vma->thpEnabled || va2m < vma->start ||
        va2m + LargePageSize > vma->end)
        return false;

    auto &ops = k.ptOps();
    auto &physmem = k.machine().physmem();

    // Raw eligibility pre-check (uncharged, like the AutoNUMA scan):
    // a run of present 4 KB PTEs with uniform flags, no pending NUMA
    // hints, plain data frames, and at least one resident page (Linux's
    // default max_ptes_none of 511 — holes become zero-filled subpages).
    // The collapse target is the socket holding the most resident
    // frames (Linux's find_target_node); minority frames migrate
    // there as a side effect of the copy.
    Pfn leaf_table = ops.tableFor(proc.roots(), va2m, 1);
    if (leaf_table == InvalidPfn)
        return false; // no leaf table (vacant range, or already huge)
    const std::uint64_t *tbl = physmem.tableView(leaf_table);
    std::uint64_t uniform = 0;
    unsigned present = 0;
    std::array<Pfn, PtEntriesPerPage> old_frames;
    std::array<bool, PtEntriesPerPage> resident{};
    std::array<unsigned, pt::MaxSockets> per_socket{};
    for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
        pt::Pte entry{tbl[i]};
        if (!entry.present())
            continue;
        if (entry.numaHint())
            return false; // don't race a pending AutoNUMA sample
        std::uint64_t flags =
            entry.raw() & ~pt::PteAdMask & ~pt::PtePfnMask;
        Pfn pfn = entry.pfn();
        if (present == 0)
            uniform = flags;
        else if (flags != uniform)
            return false;
        if (std::as_const(physmem).meta(pfn).type != mem::FrameType::Data)
            return false;
        ++per_socket[static_cast<std::size_t>(physmem.socketOf(pfn))];
        old_frames[i] = pfn;
        resident[i] = true;
        ++present;
    }
    if (present == 0)
        return false;
    SocketId socket = 0;
    for (SocketId s = 1; s < k.machine().numSockets(); ++s) {
        if (per_socket[static_cast<std::size_t>(s)] >
            per_socket[static_cast<std::size_t>(socket)])
            socket = s;
    }

    // A 2 MB block on the run's socket; without one the collapse fails
    // (the signal kcompactd exists to clear).
    auto head = physmem.allocDataLarge(socket, proc.id());
    if (!head) {
        ++stats_.collapseFailedNoBlock;
        ensureObs();
        mCollapseFailedNoBlock->inc();
        return false;
    }
    if (cost)
        cost->charge(pvops::PageAllocCost);

    // Charged re-read of every resident PTE through the backend —
    // khugepaged must observe A/D bits OR-ed across replicas (§5.4)
    // before the copy — then copy the resident frames into the fresh
    // block and zero-fill the holes.
    std::uint64_t ad = 0;
    for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
        if (!resident[i])
            continue;
        pt::Pte cur =
            k.backend().readPte(proc.roots(),
                                pt::PteLoc{leaf_table, i}, cost);
        ad |= cur.raw() & pt::PteAdMask;
    }
    if (cost) {
        cost->charge(pvops::PageCopyCost * present);
        cost->charge(pvops::PageZeroCost *
                     (FramesPerLargePage - present));
    }

    std::uint64_t flags =
        (uniform & ~static_cast<std::uint64_t>(pt::PteHuge)) | ad |
        pt::PteHuge;
    bool ok = ops.collapse2M(proc.roots(), va2m,
                             pt::Pte::make(*head, flags), cost);
    MITOSIM_ASSERT(ok, "collapseAt: leaf table vanished underneath");

    for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
        if (!resident[i])
            continue;
        physmem.freeData(old_frames[i]);
        if (cost)
            cost->charge(pvops::PageFreeCost);
    }
    // Holes became zero-filled resident subpages of the huge mapping.
    proc.residentPages += FramesPerLargePage - present;
    // One shootdown for the whole range; 512 pages is far beyond the
    // single-page-flush ceiling, so this is a flush on every core that
    // can hold the process's translations.
    k.shootdownRange(proc, {}, FramesPerLargePage, cost);
    ++stats_.collapses;
    ensureObs();
    mCollapses->inc();
    return true;
}

bool
ThpManager::splitAt(Process &proc, VirtAddr va, KernelCost *cost)
{
    VirtAddr base = alignDown(va, LargePageSize);
    auto &ops = k.ptOps();
    pt::WalkResult res = ops.walk(proc.roots(), base);
    if (!res.mapped || res.size != PageSizeKind::Large2M)
        return false;
    Pfn head = res.leaf.pfn();

    // Place the fresh leaf table as a fault at this address would have:
    // first-touch resolves to the directory table's socket, keeping the
    // split tree as local as the huge mapping was.
    auto &physmem = k.machine().physmem();
    SocketId hint = physmem.socketOf(res.loc.ptPfn);
    if (!ops.split2M(proc.roots(), proc.id(), base, proc.ptPolicy, hint,
                     cost))
        return false;
    physmem.splitLargeData(head);
    // The huge mapping was a single TLB entry; one targeted shootdown
    // also clears the covering PWC prefixes on every core.
    k.shootdown(proc, base, cost);
    ++stats_.splits;
    ensureObs();
    mSplits->inc();
    return true;
}

double
ThpManager::coverage(const Process &proc) const
{
    std::uint64_t small = 0;
    std::uint64_t huge = 0;
    k.ptOps().forEachLeaf(proc.roots(),
                          [&](VirtAddr, pt::PteLoc, pt::Pte,
                              PageSizeKind size) {
                              if (size == PageSizeKind::Large2M)
                                  ++huge;
                              else
                                  ++small;
                          });
    std::uint64_t total = small + huge * FramesPerLargePage;
    return total ? static_cast<double>(huge * FramesPerLargePage) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace mitosim::os::thp
