/**
 * @file
 * The paravirt-ops style page-table hook interface.
 *
 * The paper implements Mitosis "as a new backend for PV-Ops alongside the
 * native and Xen backends" (§5.2): every kernel write to a page-table goes
 * through this indirection, which lets the Mitosis backend propagate the
 * update to all replicas. We reproduce the same seam. The OS layer never
 * touches a PTE directly; the hardware page-walker *does* (A/D bits),
 * which is why readPte() exists — the Mitosis backend must consult
 * every replica to return correct flags (§5.4).
 *
 * Stores and reads have one virtual hook each, setPtes and readPteMany.
 * setPte and readPte are their one-entry forms, as Linux's set_pte_at
 * is set_ptes(..., 1), so a backend cannot charge a single store
 * differently from a run of one.
 */

#ifndef MITOSIM_PVOPS_PVOPS_H
#define MITOSIM_PVOPS_PVOPS_H

#include <cstdint>

#include "src/base/socket_mask.h"
#include "src/base/types.h"
#include "src/pt/pte.h"
#include "src/pt/root_set.h"

namespace mitosim::pvops
{

/** Accumulator for kernel-side cycle charging; any field may be ignored. */
struct KernelCost
{
    Cycles cycles = 0;
    std::uint64_t pteWrites = 0;      //!< primary PTE stores
    std::uint64_t replicaWrites = 0;  //!< extra stores into replicas
    std::uint64_t replicaHops = 0;    //!< circular-list pointer follows
    std::uint64_t ptPagesAllocated = 0;
    std::uint64_t ptPagesFreed = 0;

    void
    charge(Cycles c)
    {
        cycles += c;
    }
};

/**
 * Page-table hook interface (excerpt mirroring the paper's Listing 1:
 * write_cr3 -> cr3For, paravirt_alloc_pte -> allocPtPage,
 * paravirt_release_pte -> releasePtPage, set_pte -> setPte ->
 * setPtes(..., 1), plus the get-side readPte the paper had to add for
 * A/D correctness).
 */
class PvOps
{
  public:
    virtual ~PvOps() = default;

    /**
     * Allocate a page-table page at @p level for the process owning
     * @p roots. @p hint_socket is where the native policy would place it
     * (the socket of the faulting thread, or a forced socket). Backends
     * may allocate additional replica pages and link them.
     *
     * @return the pfn the *primary* tree should reference, or InvalidPfn
     *         on allocation failure.
     */
    virtual Pfn allocPtPage(pt::RootSet &roots, ProcId owner, int level,
                            SocketId hint_socket, KernelCost *cost) = 0;

    /**
     * Release the page-table page @p pfn (a primary-tree page). Backends
     * release every linked replica as well.
     */
    virtual void releasePtPage(pt::RootSet &roots, Pfn pfn,
                               KernelCost *cost) = 0;

    /**
     * The store hook (set_ptes): store @p values[0..count) into the
     * @p count consecutive slots starting at @p loc (PTE slots in the
     * primary tree) and propagate them to replicas. All slots live in
     * the same page-table page (the caller guarantees
     * loc.index + count <= PtEntriesPerPage), which is what lets
     * replicating backends locate the replica set once per table and
     * stream the stores instead of chasing the replica list per entry.
     * @p level is the level of the containing page (1..4); backends use
     * it to fix up child pointers per replica.
     *
     * A run of n must charge exactly what n one-entry calls charge
     * under a backend's default configuration; cheaper batched charging
     * is opt-in (see core::UpdateMode::Batched).
     */
    virtual void setPtes(pt::RootSet &roots, pt::PteLoc loc,
                         const pt::Pte *values, unsigned count, int level,
                         KernelCost *cost) = 0;

    /** set_pte: a one-entry setPtes. */
    void
    setPte(pt::RootSet &roots, pt::PteLoc loc, pt::Pte value, int level,
           KernelCost *cost)
    {
        setPtes(roots, loc, &value, 1, level, cost);
    }

    /**
     * THP collapse (khugepaged): store @p huge — a PS=1 L2 leaf — at
     * @p dir_loc, the L2 slot currently referencing the fully-populated
     * leaf table @p leaf_table, then release that leaf table. The
     * default composes the existing hooks, which is what keeps *every*
     * backend replica-coherent without a per-backend rewrite: setPte
     * rewrites the slot in each ring member (huge leaves copy verbatim;
     * one replica-locate per ring, the batched-update model) and
     * releasePtPage frees every linked replica of the dead leaf table.
     * Lazily-propagating backends inherit correctness too: the
     * present→present slot rewrite is eager by their own rule, and
     * their releasePtPage override purges update messages aimed at the
     * freed replica set.
     */
    virtual void
    collapseRange(pt::RootSet &roots, pt::PteLoc dir_loc, pt::Pte huge,
                  Pfn leaf_table, KernelCost *cost)
    {
        setPte(roots, dir_loc, huge, 2, cost);
        releasePtPage(roots, leaf_table, cost);
    }

    /**
     * THP demotion: split the huge leaf at @p dir_loc into 512 4 KB
     * PTEs. @p values[0..PtEntriesPerPage) map the huge page's
     * constituent frames; a fresh leaf table is allocated on
     * @p hint_socket (replica sets included), the values streamed into
     * it through the batched store hook, and only then is @p dir_loc
     * swung from the huge leaf to the new table — the Linux ordering
     * (populate the pmd-less table, then pmd_populate), so no replica
     * ever exposes a partially-filled leaf level.
     *
     * @return false when no leaf table could be allocated; the huge
     *         mapping is left intact.
     */
    virtual bool
    splitHuge(pt::RootSet &roots, ProcId owner, pt::PteLoc dir_loc,
              const pt::Pte *values, SocketId hint_socket,
              KernelCost *cost)
    {
        Pfn table = allocPtPage(roots, owner, 1, hint_socket, cost);
        if (table == InvalidPfn)
            return false;
        setPtes(roots, pt::PteLoc{table, 0}, values, PtEntriesPerPage, 1,
                cost);
        setPte(roots, dir_loc,
               pt::Pte::make(table,
                             pt::PtePresent | pt::PteWrite | pt::PteUser),
               2, cost);
        return true;
    }

    /**
     * The read hook: the PTE at @p loc for OS purposes, charged as
     * @p n reads of it (range ops re-read the same upper-level slot
     * once per page below it). Backends read once and charge n-fold,
     * so range operations keep per-page charge parity with the
     * per-page walk without per-page host work. Backends with replicas
     * must OR the Accessed/Dirty bits across all replicas (§5.4).
     */
    virtual pt::Pte readPteMany(const pt::RootSet &roots, pt::PteLoc loc,
                                unsigned n, KernelCost *cost) const = 0;

    /** One read of the PTE at @p loc: a readPteMany of one. */
    pt::Pte
    readPte(const pt::RootSet &roots, pt::PteLoc loc, KernelCost *cost) const
    {
        return readPteMany(roots, loc, 1, cost);
    }

    /**
     * write_cr3: the root the MMU of a core on @p socket must load when
     * the process is scheduled there (§5.3).
     */
    virtual Pfn cr3For(const pt::RootSet &roots, SocketId socket) const = 0;

    /**
     * Notification that the process has been migrated to socket @p to.
     * The default — and the native backend, as stock kernels do (§3.2)
     * — leaves the page-tables where they are; the Mitosis backend
     * migrates them (§5.5).
     */
    virtual void
    onProcessMigrated(pt::RootSet &roots, ProcId owner, SocketId to,
                      KernelCost *cost)
    {
        (void)roots;
        (void)owner;
        (void)to;
        (void)cost;
    }

    /**
     * Notification that a thread of the process owning @p roots has
     * been switched in on a core of @p socket (§5.3: "Mitosis
     * allocates a replica when the process is scheduled there"). The
     * time-sharing scheduler fires this on every dispatch; backends
     * doing schedule-driven replication build the socket's replica on
     * the *first* timeslice there and no-op afterwards. The default —
     * and the native backend — ignores it.
     */
    virtual void
    onThreadScheduled(pt::RootSet &roots, ProcId owner, SocketId socket,
                      KernelCost *cost)
    {
        (void)roots;
        (void)owner;
        (void)socket;
        (void)cost;
    }

    /**
     * Pre-fault hook: a walk on @p socket faulted at @p va. Backends
     * with *lazy* replica propagation (the §7.2 library-OS design)
     * drain their pending update queue for that socket here and return
     * true so the access retries; eager backends return false and the
     * kernel services the fault normally.
     */
    virtual bool
    onTranslationFault(pt::RootSet &roots, SocketId socket, VirtAddr va,
                       KernelCost *cost)
    {
        (void)roots;
        (void)socket;
        (void)va;
        (void)cost;
        return false;
    }

    /** Human-readable backend name ("native", "mitosis"). */
    virtual const char *name() const = 0;
};

} // namespace mitosim::pvops

#endif // MITOSIM_PVOPS_PVOPS_H
