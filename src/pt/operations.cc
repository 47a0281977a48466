#include "operations.h"

#include <algorithm>
#include <array>
#include <vector>

#include "src/base/logging.h"
#include "src/pvops/costs.h"

namespace mitosim::pt
{

namespace
{

/** First slot of @p table (entry va of slot 0 = @p base) in range. */
unsigned
firstSlotInRange(VirtAddr base, std::uint64_t span, VirtAddr start)
{
    return start > base ? static_cast<unsigned>((start - base) / span) : 0;
}

/** Is @p entry a leaf at @p level (L1, or a huge L2 entry)? */
bool
isLeafAt(Pte entry, int level)
{
    return entry.present() &&
           (level == 1 || (level == 2 && entry.huge()));
}

} // namespace

bool
PageTableOps::createRoot(RootSet &roots, ProcId owner, SocketId socket,
                         pvops::KernelCost *cost)
{
    MITOSIM_ASSERT(roots.primaryRoot == InvalidPfn,
                   "createRoot: process already has a root");
    Pfn root = pv.allocPtPage(roots, owner, 4, socket, cost);
    if (root == InvalidPfn)
        return false;
    roots.primaryRoot = root;
    roots.resetToPrimary();
    return true;
}

Pfn
PageTableOps::descendAlloc(RootSet &roots, ProcId owner, VirtAddr va,
                           int target_level, PtPlacementPolicy &pt_policy,
                           SocketId faulting_socket,
                           pvops::KernelCost *cost)
{
    MITOSIM_ASSERT(roots.primaryRoot != InvalidPfn, "process has no root");
    Pfn table = roots.primaryRoot;
    for (int level = 4; level > target_level; --level) {
        unsigned idx = ptIndex(va, ptLevel(level));
        Pte entry = pv.readPte(roots, PteLoc{table, idx}, cost);
        if (!entry.present()) {
            SocketId target = pt_policy.chooseSocket(
                faulting_socket, mem.topology().numSockets());
            Pfn child = pv.allocPtPage(roots, owner, level - 1, target,
                                       cost);
            if (child == InvalidPfn)
                return InvalidPfn;
            Pte new_entry = Pte::make(child, PtePresent | PteWrite |
                                                 PteUser);
            pv.setPte(roots, PteLoc{table, idx}, new_entry, level, cost);
            table = child;
        } else {
            MITOSIM_ASSERT(!entry.huge(),
                           "descendAlloc: hit a huge leaf above target");
            table = entry.pfn();
        }
    }
    return table;
}

PageTableOps::PrimaryPath
PageTableOps::primaryPath(const RootSet &roots, VirtAddr va,
                          int stop_level) const
{
    PrimaryPath path;
    path.va = va;
    Pfn table = roots.primaryRoot;
    if (table == InvalidPfn)
        return path;
    for (int level = 4;; --level) {
        path.table[4 - level] = table;
        path.level = level;
        path.entry = Pte{mem.tableView(table)[ptIndex(va, ptLevel(level))]};
        if (!path.entry.present() || isLeafAt(path.entry, level))
            return path;
        table = path.entry.pfn();
        if (level == stop_level) {
            path.table[5 - level] = table; // reached, not read
            return path;
        }
    }
}

Pfn
PageTableOps::descend(const RootSet &roots, VirtAddr va, int level) const
{
    MITOSIM_ASSERT(level >= 1 && level <= 3, "descend: level out of range");
    return primaryPath(roots, va, level + 1).table[4 - level];
}

Pfn
PageTableOps::cursorLeaf(const RootSet &roots, VirtAddr va,
                         pvops::KernelCost *cost)
{
    const LeafCursor &c = cursor_;
    if (c.region != (va >> LargePageShift) || c.epoch != mem.ptEpoch() ||
        c.path[0] != roots.primaryRoot)
        return InvalidPfn;
    // An unchanged epoch already rules out a path table being freed,
    // reused or replicated; re-reading the path entries (raw, like
    // walk()) also catches a rewrite of an entry in place. This checks
    // known links rather than descending through primaryPath: the
    // three reads do not wait on one another, and the descent measured
    // slower (EXPERIMENTS.md, "One entry point per job").
    for (int level = 4; level >= 2; --level) {
        Pte entry{mem.tableView(c.path[4 - level])[ptIndex(
            va, ptLevel(level))]};
        if (!entry.present() || entry.huge() ||
            entry.pfn() != c.path[5 - level])
            return InvalidPfn;
    }
    if (cost)
        cost->charge(c.readCycles);
    if (mDescentCursor)
        mDescentCursor->inc();
    return c.path[3];
}

void
PageTableOps::rememberDescent(const RootSet &roots, VirtAddr va, Pfn leaf,
                              Cycles cycles)
{
    const mem::PhysicalMemory &pm = mem;
    PrimaryPath path = primaryPath(roots, va, 2);
    MITOSIM_ASSERT(path.table[3] == leaf, "rememberDescent: path mismatch");
    // A replicated table's readPte also ORs A/D bits across its ring
    // and counts adMergedReads: not reproducible from cycles.
    for (int i = 0; i < 3; ++i) {
        if (pm.meta(path.table[i]).replicaNext != path.table[i])
            return;
    }
    cursor_ = LeafCursor{path.table, va >> LargePageShift, pm.ptEpoch(),
                         cycles};
}

bool
PageTableOps::map4K(RootSet &roots, ProcId owner, VirtAddr va, Pfn data_pfn,
                    std::uint64_t flags, PtPlacementPolicy &pt_policy,
                    SocketId faulting_socket, pvops::KernelCost *cost)
{
    Pfn leaf_table = cursorLeaf(roots, va, cost);
    if (leaf_table == InvalidPfn) {
        std::uint64_t epoch = mem.ptEpoch();
        Cycles before = cost ? cost->cycles : 0;
        leaf_table = descendAlloc(roots, owner, va, 1, pt_policy,
                                  faulting_socket, cost);
        if (leaf_table == InvalidPfn)
            return false;
        if (mDescentFull)
            mDescentFull->inc();
        // Nothing allocated: the descent charged its three reads only.
        if (cost && mem.ptEpoch() == epoch)
            rememberDescent(roots, va, leaf_table, cost->cycles - before);
    }
    unsigned idx = ptIndex(va, PtLevel::L1);
    Pte value = Pte::make(data_pfn, flags | PtePresent);
    pv.setPte(roots, PteLoc{leaf_table, idx}, value, 1, cost);
    return true;
}

bool
PageTableOps::map2M(RootSet &roots, ProcId owner, VirtAddr va, Pfn head_pfn,
                    std::uint64_t flags, PtPlacementPolicy &pt_policy,
                    SocketId faulting_socket, pvops::KernelCost *cost)
{
    MITOSIM_ASSERT((va & (LargePageSize - 1)) == 0,
                   "map2M: va not 2MB aligned");
    MITOSIM_ASSERT((head_pfn & (FramesPerLargePage - 1)) == 0,
                   "map2M: pfn not 2MB aligned");
    Pfn dir_table = descendAlloc(roots, owner, va, 2, pt_policy,
                                 faulting_socket, cost);
    if (dir_table == InvalidPfn)
        return false;
    unsigned idx = ptIndex(va, PtLevel::L2);
    Pte value = Pte::make(head_pfn, flags | PtePresent | PteHuge);
    pv.setPte(roots, PteLoc{dir_table, idx}, value, 2, cost);
    return true;
}

WalkResult
PageTableOps::walk(const RootSet &roots, VirtAddr va) const
{
    PrimaryPath path = primaryPath(roots, va, 1);
    WalkResult res;
    if (!isLeafAt(path.entry, path.level))
        return res;
    res.mapped = true;
    res.leaf = path.entry;
    res.loc = path.slot(path.level);
    res.size = path.level == 1 ? PageSizeKind::Base4K
                               : PageSizeKind::Large2M;
    return res;
}

void
PageTableOps::forEachLeafRun(
    Pfn table, int level, VirtAddr base, VirtAddr start, VirtAddr end,
    const std::function<void(Pfn, int, VirtAddr, unsigned, unsigned)> &fn)
    const
{
    const std::uint64_t *tbl = mem.tableView(table);
    std::uint64_t span = bytesPerEntry(ptLevel(level));
    unsigned i = firstSlotInRange(base, span, start);
    while (i < PtEntriesPerPage && base + i * span < end) {
        Pte entry{tbl[i]};
        if (!entry.present()) {
            ++i;
            continue;
        }
        if (!isLeafAt(entry, level)) {
            forEachLeafRun(entry.pfn(), level - 1, base + i * span,
                           start, end, fn);
            ++i;
        } else {
            unsigned run_start = i;
            while (i < PtEntriesPerPage && base + i * span < end &&
                   isLeafAt(Pte{tbl[i]}, level))
                ++i;
            fn(table, level, base, run_start, i - run_start);
        }
    }
}

std::uint64_t
PageTableOps::mapRange4K(RootSet &roots, ProcId owner, VirtAddr start,
                         VirtAddr end, PtPlacementPolicy &pt_policy,
                         SocketId faulting_socket,
                         const std::function<Pte(VirtAddr)> &fill,
                         pvops::KernelCost *cost)
{
    MITOSIM_ASSERT(roots.primaryRoot != InvalidPfn, "process has no root");
    std::uint64_t mapped = 0;
    std::array<Pte, PtEntriesPerPage> run;
    int num_sockets = mem.topology().numSockets();

    VirtAddr va = alignDown(start, PageSize);
    while (va < end) {
        VirtAddr chunk_end =
            std::min(end, alignDown(va, LargePageSize) + LargePageSize);

        // Descend once per leaf table, raw reads like walk(). The path
        // slots are shared by every page of the chunk and are re-read
        // through the backend per mapped page below, reproducing the
        // per-page descendAlloc charges.
        PrimaryPath descent = primaryPath(roots, va, 2);
        if (isLeafAt(descent.entry, descent.level)) {
            va = chunk_end; // whole chunk mapped by a 2 MB leaf
            continue;
        }
        PteLoc path[3];
        for (int level = 4; level >= descent.level; --level)
            path[4 - level] = descent.slot(level);
        Pfn leaf_table = descent.table[3];
        // Levels missing_level..1 need tables (none if leaf_table).
        int missing_level = descent.entry.present() ? 0 : descent.level - 1;

        unsigned run_start = 0;
        unsigned run_len = 0;
        std::uint64_t filled = 0;
        auto flushRun = [&] {
            if (run_len) {
                pv.setPtes(roots, PteLoc{leaf_table, run_start},
                           run.data(), run_len, 1, cost);
                run_len = 0;
            }
        };

        for (; va < chunk_end; va += PageSize) {
            unsigned idx = ptIndex(va, PtLevel::L1);
            if (leaf_table != InvalidPfn &&
                Pte{mem.tableView(leaf_table)[idx]}.present()) {
                flushRun();
                continue;
            }

            Pte value = fill(va);

            if (leaf_table == InvalidPfn) {
                // First page under a missing subtree: allocate the
                // chain top-down *after* fill(), so frame-allocation
                // order matches the per-page fault path (data frame
                // first, then tables).
                for (int level = missing_level; level >= 1; --level) {
                    PteLoc parent = path[3 - level];
                    SocketId target = pt_policy.chooseSocket(
                        faulting_socket, num_sockets);
                    Pfn child = pv.allocPtPage(roots, owner, level,
                                               target, cost);
                    if (child == InvalidPfn)
                        fatal("mapRange4K: out of memory for a "
                              "level-%d table",
                              level);
                    pv.setPte(roots, parent,
                              Pte::make(child, PtePresent | PteWrite |
                                                   PteUser),
                              level + 1, cost);
                    if (level > 1) {
                        path[4 - level] =
                            PteLoc{child, ptIndex(va, ptLevel(level))};
                    } else {
                        leaf_table = child;
                    }
                }
                missing_level = 0;
            }

            if (run_len == 0)
                run_start = idx;
            run[run_len++] = value;
            ++filled;
            ++mapped;
        }
        flushRun();

        // Per-page descent charge: the per-page path paid one readPte
        // per upper level for every page it mapped. All pages of the
        // chunk share the same three path slots, so charge the n-fold
        // reads in one backend call each.
        if (filled) {
            for (const PteLoc &slot : path)
                pv.readPteMany(roots, slot,
                               static_cast<unsigned>(filled), cost);
        }
    }
    return mapped;
}

std::uint64_t
PageTableOps::unmapRange(
    RootSet &roots, VirtAddr start, VirtAddr end,
    const std::function<void(VirtAddr, Pte, PageSizeKind)> &freed,
    pvops::KernelCost *cost)
{
    if (roots.primaryRoot == InvalidPfn || start >= end)
        return 0;
    std::uint64_t cleared = 0;
    std::array<Pte, PtEntriesPerPage> zeros{}; // shared batched value
    std::array<Pte, PtEntriesPerPage> olds;

    forEachLeafRun(
        roots.primaryRoot, 4, 0, start, end,
        [&](Pfn table, int level, VirtAddr base, unsigned first,
            unsigned n) {
            const std::uint64_t *tbl = mem.tableView(table);
            std::uint64_t span = bytesPerEntry(ptLevel(level));
            PageSizeKind size = level == 1 ? PageSizeKind::Base4K
                                           : PageSizeKind::Large2M;
            for (unsigned k = 0; k < n; ++k)
                olds[k] = Pte{tbl[first + k]};
            // One batched clear through the backend per run.
            pv.setPtes(roots, PteLoc{table, first}, zeros.data(), n,
                       level, cost);
            for (unsigned k = 0; k < n; ++k)
                freed(base + (first + k) * span, olds[k], size);
            cleared += n;
        });
    return cleared;
}

std::uint64_t
PageTableOps::protectRange(
    RootSet &roots, VirtAddr start, VirtAddr end, std::uint64_t set_flags,
    std::uint64_t clear_flags,
    const std::function<void(VirtAddr, PageSizeKind)> &touched,
    pvops::KernelCost *cost)
{
    if (roots.primaryRoot == InvalidPfn || start >= end)
        return 0;
    std::uint64_t rewritten = 0;
    std::array<Pte, PtEntriesPerPage> values;

    forEachLeafRun(
        roots.primaryRoot, 4, 0, start, end,
        [&](Pfn table, int level, VirtAddr base, unsigned first,
            unsigned n) {
            std::uint64_t span = bytesPerEntry(ptLevel(level));
            PageSizeKind size = level == 1 ? PageSizeKind::Base4K
                                           : PageSizeKind::Large2M;
            // Read-modify-write the run; reads go through the backend
            // (OR-ed A/D bits), the store is one batched setPtes.
            for (unsigned k = 0; k < n; ++k) {
                Pte cur = pv.readPte(roots, PteLoc{table, first + k},
                                     cost);
                values[k] = cur.withFlags(set_flags, clear_flags);
            }
            pv.setPtes(roots, PteLoc{table, first}, values.data(), n,
                       level, cost);
            if (touched) {
                for (unsigned k = 0; k < n; ++k)
                    touched(base + (first + k) * span, size);
            }
            rewritten += n;
        });
    return rewritten;
}

bool
PageTableOps::collapse2M(RootSet &roots, VirtAddr va, Pte huge,
                         pvops::KernelCost *cost)
{
    MITOSIM_ASSERT((va & (LargePageSize - 1)) == 0,
                   "collapse2M: va not 2MB aligned");
    MITOSIM_ASSERT(huge.present() && huge.huge(),
                   "collapse2M: replacement is not a huge leaf");
    PrimaryPath path = primaryPath(roots, va, 2);
    if (path.table[3] == InvalidPfn)
        return false; // nothing to collapse (hole, or already huge)
    pv.collapseRange(roots, path.slot(2), huge, path.table[3], cost);
    return true;
}

bool
PageTableOps::split2M(RootSet &roots, ProcId owner, VirtAddr va,
                      PtPlacementPolicy &pt_policy,
                      SocketId faulting_socket, pvops::KernelCost *cost)
{
    PrimaryPath path = primaryPath(roots, alignDown(va, LargePageSize), 2);
    if (!isLeafAt(path.entry, path.level))
        return false; // no huge leaf here
    Pte huge = path.entry;

    std::uint64_t flags = huge.raw() & ~PtePfnMask &
                          ~static_cast<std::uint64_t>(PteHuge);
    std::array<Pte, PtEntriesPerPage> values;
    for (unsigned k = 0; k < PtEntriesPerPage; ++k)
        values[k] = Pte::make(huge.pfn() + k, flags);

    SocketId target =
        pt_policy.chooseSocket(faulting_socket,
                               mem.topology().numSockets());
    return pv.splitHuge(roots, owner, path.slot(2), values.data(), target,
                        cost);
}

void
PageTableOps::forEachTable(const RootSet &roots,
                           const std::function<void(Pfn, int)> &fn) const
{
    if (roots.primaryRoot != InvalidPfn)
        forEachTableUnder(mem, roots.primaryRoot, fn);
}

void
PageTableOps::destroyLevel(RootSet &roots, Pfn table, int level,
                           pvops::KernelCost *cost)
{
    if (level > 1) {
        const std::uint64_t *tbl = mem.tableView(table);
        for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
            Pte entry{tbl[i]};
            if (entry.present() && !(level == 2 && entry.huge()))
                destroyLevel(roots, entry.pfn(), level - 1, cost);
        }
    }
    pv.releasePtPage(roots, table, cost);
}

void
PageTableOps::destroy(RootSet &roots, pvops::KernelCost *cost)
{
    if (roots.primaryRoot == InvalidPfn)
        return;
    destroyLevel(roots, roots.primaryRoot, 4, cost);
    roots.primaryRoot = InvalidPfn;
    roots.perSocketRoot.fill(InvalidPfn);
    roots.replicaMask = SocketMask::none();
}

} // namespace mitosim::pt
