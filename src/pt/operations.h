/**
 * @file
 * Software page-table management: map, unmap, protect, walk, destroy.
 *
 * This is the kernel-side view of the radix tree. All mutation goes
 * through the PV-Ops backend so that replication is transparent to the
 * callers (the OS layer), exactly as in the paper's Linux implementation.
 * Every charged read goes through the backend's readPte as well, which
 * is how the Mitosis backend guarantees OR-ed Accessed/Dirty bits; the
 * uncharged lookups (walk, descend) read the primary copy raw.
 */

#ifndef MITOSIM_PT_OPERATIONS_H
#define MITOSIM_PT_OPERATIONS_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/mem/physical_memory.h"
#include "src/obs/metrics.h"
#include "src/pt/pte.h"
#include "src/pt/root_set.h"
#include "src/pvops/pvops.h"

namespace mitosim::pt
{

/**
 * Visit every page-table page of the tree under the level-4 table
 * @p root as @p fn (pt_pfn, level): depth first, parents before
 * children, a table's children in reverse slot order. @p fn runs
 * before the table's entries are read, so it may free the table's
 * replicas. Reads go through tableView.
 */
template <typename Fn>
void
forEachTableUnder(const mem::PhysicalMemory &mem, Pfn root, Fn &&fn)
{
    struct Frame
    {
        Pfn table;
        int level;
    };
    std::vector<Frame> stack{{root, 4}};
    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        fn(f.table, f.level);
        if (f.level == 1)
            continue;
        const std::uint64_t *tbl = mem.tableView(f.table);
        for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
            Pte entry{tbl[i]};
            if (entry.present() && !(f.level == 2 && entry.huge()))
                stack.push_back({entry.pfn(), f.level - 1});
        }
    }
}

/** Result of a software walk. */
struct WalkResult
{
    bool mapped = false;       //!< leaf present
    Pte leaf;                  //!< the primary copy's leaf, read raw
    PteLoc loc;                //!< where the leaf lives (primary tree)
    PageSizeKind size = PageSizeKind::Base4K;
};

/** The default PageTableOps::forEachLeaf subtree predicate: all. */
struct AllSubtrees
{
    constexpr bool operator()(VirtAddr, VirtAddr) const { return true; }
};

/** How to choose the socket of a newly allocated page-table page. */
enum class PtPlacement
{
    FirstTouch,  //!< socket of the faulting thread (Linux default, §3.1)
    Interleave,  //!< round-robin across sockets
    Fixed,       //!< always a designated socket (§3.2 methodology)
};

/** PT placement policy state for one process. */
struct PtPlacementPolicy
{
    PtPlacement mode = PtPlacement::FirstTouch;
    SocketId fixedSocket = 0;     //!< used when mode == Fixed
    int interleaveNext = 0;       //!< rotor when mode == Interleave

    SocketId
    chooseSocket(SocketId faulting_socket, int num_sockets)
    {
        switch (mode) {
          case PtPlacement::FirstTouch:
            return faulting_socket;
          case PtPlacement::Interleave: {
            SocketId s = interleaveNext;
            interleaveNext = (interleaveNext + 1) % num_sockets;
            return s;
          }
          case PtPlacement::Fixed:
            return fixedSocket;
        }
        return faulting_socket;
    }
};

/**
 * Page-table operations bound to a physical memory and a PV-Ops backend:
 * one entry point per job. Mapping is map4K (the demand fault), map2M
 * and mapRange4K (populate); rewriting is unmapRange and protectRange,
 * whose one-page form is the range over that page; reading is walk,
 * descend, forEachLeaf and forEachTable. Every uncharged descent of
 * the primary tree is one loop (primaryPath).
 *
 * All per-process state lives in RootSet. The one piece of state kept
 * here is map4K's leaf-table cursor: a memo of the last full descent,
 * re-validated on every use, that never changes what an operation
 * does or charges.
 */
class PageTableOps
{
  public:
    PageTableOps(mem::PhysicalMemory &physmem, pvops::PvOps &backend)
        : mem(physmem), pv(backend)
    {
    }

    pvops::PvOps &backend() { return pv; }
    const pvops::PvOps &backend() const { return pv; }

    /**
     * Count every map4K descent into @p cursor (the leaf-table cursor
     * served it) or @p full (walked from the root). Null: no counting.
     */
    void
    attachDescentCounters(obs::Counter *cursor, obs::Counter *full)
    {
        mDescentCursor = cursor;
        mDescentFull = full;
    }

    /** Test hook: forget the map4K cursor; the next map4K re-descends. */
    void dropCursorForTest() { cursor_ = LeafCursor{}; }

    /**
     * Create the root (L4) table for a new process.
     * @return false on allocation failure.
     */
    bool createRoot(RootSet &roots, ProcId owner, SocketId socket,
                    pvops::KernelCost *cost);

    /**
     * Map @p va -> @p data_pfn as a 4 KB page, allocating intermediate
     * tables as needed via the placement policy.
     *
     * Consecutive faults into one 2 MB region skip the re-descent: the
     * leaf table of the last full descent is reused once its three
     * upper path entries read back unchanged, and the cycles that
     * descent's readPte calls charged are charged again. Only a descent
     * that allocated nothing, through path tables that are all
     * unreplicated, is remembered. Such a descent's reads charge cycles
     * alone (no A/D merge, no MitosisStats), so the reuse is exact.
     */
    bool map4K(RootSet &roots, ProcId owner, VirtAddr va, Pfn data_pfn,
               std::uint64_t flags, PtPlacementPolicy &pt_policy,
               SocketId faulting_socket, pvops::KernelCost *cost);

    /** Map @p va -> 2 MB page at @p head_pfn (PS entry at L2). */
    bool map2M(RootSet &roots, ProcId owner, VirtAddr va, Pfn head_pfn,
               std::uint64_t flags, PtPlacementPolicy &pt_policy,
               SocketId faulting_socket, pvops::KernelCost *cost);

    /**
     * Software walk of the *primary* tree (used by the OS; the hardware
     * walker in sim/walker.h walks per-socket replicas with timing).
     * Raw and uncharged: the leaf is the primary copy's. The backend's
     * readPte at the result's loc ORs A/D bits across replicas.
     */
    WalkResult walk(const RootSet &roots, VirtAddr va) const;

    /**
     * Primary-tree table holding @p va's entry at @p level (1 to 3),
     * or InvalidPfn when the path is missing (or covered by a huge
     * leaf above @p level). Raw and uncharged, like walk().
     */
    Pfn descend(const RootSet &roots, VirtAddr va, int level) const;

    /// @name Range operations
    /// @{
    ///
    /// The seed kernel executed every range syscall as a per-page loop
    /// that re-descended the radix tree from CR3 for each 4 KB page.
    /// These operations descend once per table instead and then sweep
    /// its 512 slots, batching contiguous leaf stores through the
    /// backend's setPtes hook. The *charged* cost model is kept
    /// per-entry-identical to the per-page loops (each mapped page
    /// still pays one readPte per upper level, each store the same
    /// per-PTE charges) so that all reported metrics are unchanged;
    /// only host wall-clock improves. See EXPERIMENTS.md
    /// ("Range-based address-space operations").

    /**
     * Map every *unmapped* 4 KB slot in [start, end). @p fill(va)
     * supplies the leaf to install (data frame + flags) and is invoked
     * in ascending address order *before* any page-table page the
     * mapping needs is allocated, so physical-frame allocation order
     * matches the demand-fault path exactly. Missing intermediate
     * tables are allocated top-down via @p pt_policy, as descendAlloc
     * does. Slots already mapped (4 KB or huge) are skipped.
     *
     * @return the number of pages mapped.
     */
    std::uint64_t mapRange4K(RootSet &roots, ProcId owner, VirtAddr start,
                             VirtAddr end, PtPlacementPolicy &pt_policy,
                             SocketId faulting_socket,
                             const std::function<Pte(VirtAddr)> &fill,
                             pvops::KernelCost *cost);

    /**
     * Clear every present leaf intersecting [start, end). @p freed is
     * invoked with each former leaf (entry-aligned va) after its slot
     * run is cleared; intermediate tables are retained (as Linux does
     * for non-exit unmaps).
     *
     * @return the number of leaf entries cleared.
     */
    std::uint64_t
    unmapRange(RootSet &roots, VirtAddr start, VirtAddr end,
               const std::function<void(VirtAddr, Pte, PageSizeKind)>
                   &freed,
               pvops::KernelCost *cost);

    /**
     * Read-modify-write the flags of every present leaf intersecting
     * [start, end): set @p set_flags, clear @p clear_flags. @p touched
     * (may be empty) observes each rewritten leaf's entry-aligned va.
     * Over one page it charges what a single-leaf rewrite would: one
     * readPte and one one-entry store, a huge leaf rewritten whole.
     *
     * @return the number of leaf entries rewritten.
     */
    std::uint64_t
    protectRange(RootSet &roots, VirtAddr start, VirtAddr end,
                 std::uint64_t set_flags, std::uint64_t clear_flags,
                 const std::function<void(VirtAddr, PageSizeKind)>
                     &touched,
                 pvops::KernelCost *cost);

    /// @}

    /// @name THP lifecycle (collapse / split)
    /// @{

    /**
     * Collapse the fully-populated leaf table under @p va (2 MB
     * aligned) into the single huge leaf @p huge: the backend's
     * collapseRange hook rewrites the L2 slot in *every* replica and
     * releases the dead leaf table's whole replica set. Data-frame
     * bookkeeping (copy, free) is the caller's job.
     *
     * @return false when @p va is not currently backed by a leaf table.
     */
    bool collapse2M(RootSet &roots, VirtAddr va, Pte huge,
                    pvops::KernelCost *cost);

    /**
     * Demote the huge leaf at @p va into 512 4 KB PTEs mapping the same
     * frames (flags preserved, PS dropped; hardware-written A/D bits
     * are inherited by every small PTE, the conservative Linux
     * choice). The fresh leaf table is placed via @p pt_policy.
     *
     * @return false when @p va has no huge leaf, or the table
     *         allocation failed (mapping left intact).
     */
    bool split2M(RootSet &roots, ProcId owner, VirtAddr va,
                 PtPlacementPolicy &pt_policy, SocketId faulting_socket,
                 pvops::KernelCost *cost);

    /// @}

    /**
     * Visit every present leaf entry in the primary tree.
     * @param fn (va, level-1-or-2 loc, pte, size)
     * @param covers (lo, hi): may the subtree mapping [lo, hi) hold a
     *        present leaf? A child table is read only when it returns
     *        true. The default, AllSubtrees, reads every table. A
     *        predicate must never answer false for a subtree that holds
     *        a present leaf: those leaves would be skipped silently.
     *
     * Order: a table's leaves in ascending index order, then its child
     * tables in descending index order, each child's subtree in full
     * before the next child. AutoNuma::scan pairs one random draw with
     * each leaf, and kcompactd's rmap keeps the last visit of a pfn, so
     * both depend on this order; pruning with @p covers drops only
     * subtrees without leaves, so the leaves that remain keep it.
     *
     * Templated on the visitor so the per-leaf callback inlines: the
     * THP scanner and kcompactd walk every mapped leaf per tick
     * (millions of invocations per run), where type-erased dispatch
     * through std::function is measurable host overhead. Each group of
     * eight entries is OR-ed together first, so runs of non-present
     * entries cost one test per group.
     */
    template <typename Fn, typename Covers = AllSubtrees>
    void
    forEachLeaf(const RootSet &roots, Fn &&fn, Covers &&covers = {}) const
    {
        if (roots.primaryRoot != InvalidPfn)
            leafWalk(roots.primaryRoot, 4, 0, fn, covers);
    }

    /**
     * Visit every page-table page of the primary tree (the
     * forEachTableUnder order).
     * @param fn (pt_pfn, level)
     */
    void forEachTable(const RootSet &roots,
                      const std::function<void(Pfn, int)> &fn) const;

    /** Free the whole tree (process exit), including replicas. */
    void destroy(RootSet &roots, pvops::KernelCost *cost);

    mem::PhysicalMemory &physmem() { return mem; }

  private:
    /** Does any of the eight entries at @p group have the present bit? */
    static bool
    anyPresent(const std::uint64_t *group)
    {
        std::uint64_t any = 0;
        for (unsigned i = 0; i < 8; ++i)
            any |= group[i];
        return any & PtePresent;
    }

    /** forEachLeaf below @p table (at @p level, mapping from @p base). */
    template <typename Fn, typename Covers>
    void
    leafWalk(Pfn table, int level, VirtAddr base, Fn &fn,
             Covers &covers) const
    {
        const std::uint64_t *tbl = mem.tableView(table);
        const std::uint64_t span = bytesPerEntry(ptLevel(level));
        if (level <= 2) {
            // Leaves: every present L1 entry, the huge L2 entries.
            for (unsigned g = 0; g < PtEntriesPerPage; g += 8) {
                if (!anyPresent(tbl + g))
                    continue;
                for (unsigned i = g; i < g + 8; ++i) {
                    Pte entry{tbl[i]};
                    if (!entry.present() || (level == 2 && !entry.huge()))
                        continue;
                    fn(base + i * span, PteLoc{table, i}, entry,
                       level == 1 ? PageSizeKind::Base4K
                                  : PageSizeKind::Large2M);
                }
            }
            if (level == 1)
                return;
        }
        // Child tables, descending.
        for (unsigned g = PtEntriesPerPage; g != 0; g -= 8) {
            if (!anyPresent(tbl + g - 8))
                continue;
            for (unsigned i = g; i-- != g - 8;) {
                Pte entry{tbl[i]};
                if (!entry.present() || (level == 2 && entry.huge()))
                    continue;
                VirtAddr va = base + i * span;
                if (covers(va, va + span))
                    leafWalk(entry.pfn(), level - 1, va, fn, covers);
            }
        }
    }

    /**
     * Descend to the table at @p target_level, allocating missing
     * intermediate tables. Returns the pfn of the target-level table in
     * the primary tree, or InvalidPfn on allocation failure.
     */
    Pfn descendAlloc(RootSet &roots, ProcId owner, VirtAddr va,
                     int target_level, PtPlacementPolicy &pt_policy,
                     SocketId faulting_socket, pvops::KernelCost *cost);

    /**
     * A raw, uncharged descent of the primary tree towards one va: the
     * tables on the path, the level of the last entry read and that
     * entry.
     */
    struct PrimaryPath
    {
        VirtAddr va = 0;
        /** table[4 - l]: the level-l table on the path; InvalidPfn
         *  where the path ends above level l. */
        std::array<Pfn, 4> table{InvalidPfn, InvalidPfn, InvalidPfn,
                                 InvalidPfn};
        int level = 4; //!< level of the last entry read
        Pte entry;     //!< that entry (non-present: the path ends)

        /** The slot read at @p l (l >= level). */
        PteLoc
        slot(int l) const
        {
            return PteLoc{table[4 - l], ptIndex(va, ptLevel(l))};
        }
    };

    /**
     * Descend the primary tree towards @p va, reading each level's
     * entry raw, until an entry is not present, is a leaf (L1, or a
     * huge L2 entry) or sits at @p stop_level; in the last case the
     * table it points to is on the path, unread. No root: nothing
     * read. walk, descend, mapRange4K, collapse2M, split2M and the
     * recording of map4K's cursor all descend through this one loop.
     */
    PrimaryPath primaryPath(const RootSet &roots, VirtAddr va,
                            int stop_level) const;

    /**
     * The shared range-cursor skeleton: recursively visit [start, end)
     * of the tree under @p table, invoking @p fn once per maximal run
     * of contiguous present leaf entries (L1 slots, or huge L2 slots)
     * with (table, level, table_base_va, first_slot, slot_count).
     * unmapRange and protectRange both sit on this.
     */
    void forEachLeafRun(
        Pfn table, int level, VirtAddr base, VirtAddr start, VirtAddr end,
        const std::function<void(Pfn, int, VirtAddr, unsigned, unsigned)>
            &fn) const;

    void destroyLevel(RootSet &roots, Pfn table, int level,
                      pvops::KernelCost *cost);

    /**
     * The last full map4K descent worth reusing: the tables on its
     * path (root, L3, L2, leaf), the 2 MB region it served, the
     * PT-structure epoch it was taken at, and the cycles its three
     * readPte calls charged. The default value matches no region.
     */
    struct LeafCursor
    {
        std::array<Pfn, 4> path{InvalidPfn, InvalidPfn, InvalidPfn,
                                InvalidPfn};
        VirtAddr region = ~VirtAddr{0};
        std::uint64_t epoch = 0;
        Cycles readCycles = 0;
    };

    /**
     * The cursor's leaf table if it serves @p va (charging the reads it
     * stands for into @p cost), else InvalidPfn. It serves @p va when
     * the PT-structure epoch is unchanged and every link of the
     * remembered path still holds for @p va.
     */
    Pfn cursorLeaf(const RootSet &roots, VirtAddr va,
                   pvops::KernelCost *cost);

    /** Remember a full descent for @p va whose reads cost @p cycles. */
    void rememberDescent(const RootSet &roots, VirtAddr va, Pfn leaf,
                         Cycles cycles);

    mem::PhysicalMemory &mem;
    pvops::PvOps &pv;
    LeafCursor cursor_;
    obs::Counter *mDescentCursor = nullptr;
    obs::Counter *mDescentFull = nullptr;
};

} // namespace mitosim::pt

#endif // MITOSIM_PT_OPERATIONS_H
