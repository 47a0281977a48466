/**
 * @file
 * Lazy replica propagation — the §7.2 library-OS design, realized as a
 * PV-Ops backend:
 *
 *   "Updates to page-tables might need to be converted to explicit
 *    update messages to other sockets, which avoid the need for global
 *    locks and propagates updates lazily. On a page-fault, updates can
 *    be processed and applied accordingly in the page-fault handling
 *    routine."
 *
 * LazyMitosisBackend queues *installing* PTE stores (non-present ->
 * present) as per-socket update messages instead of writing every
 * replica eagerly; a replica that has not received the message simply
 * faults, and the kernel's pre-fault hook drains the socket's queue.
 *
 * Correctness rule: only installs may be lazy. Any store that changes a
 * *present* replica entry (unmap, permission downgrade, frame
 * migration) is propagated eagerly — a stale present entry would keep
 * translating and never fault, which could leak freed frames.
 *
 * The THP lifecycle hooks (PvOps::collapseRange / splitHuge) need no
 * override here: the rule above makes the base composition coherent by
 * construction. Collapse rewrites a *present* L2 slot (eager in every
 * replica) and then releases the leaf table, whose override purges any
 * update messages still queued at the dying replica set; a split fills
 * a fresh leaf table (pure installs — queued, drained at fault time)
 * before the eager present→present L2 swing, so a replica that races
 * ahead simply faults at L1 and drains its queue.
 */

#ifndef MITOSIM_CORE_LAZY_BACKEND_H
#define MITOSIM_CORE_LAZY_BACKEND_H

#include <deque>
#include <vector>

#include "src/core/mitosis.h"

namespace mitosim::core
{

/** Lazy-propagation statistics. */
struct LazyStats
{
    std::uint64_t queued = 0;       //!< update messages enqueued
    std::uint64_t applied = 0;      //!< messages applied at fault time
    std::uint64_t drains = 0;       //!< fault-time queue drains
    std::uint64_t eagerFallbacks = 0; //!< present-entry stores kept eager
    std::uint64_t maxQueueDepth = 0;
};

/** MitosisBackend with message-based lazy install propagation. */
class LazyMitosisBackend : public MitosisBackend
{
  public:
    explicit LazyMitosisBackend(
        mem::PhysicalMemory &physmem,
        const MitosisConfig &config = MitosisConfig{});

    /**
     * Stores keep the lazy install/eager-fallback split per entry, but
     * chase the replica ring once per table. Default modes charge a run
     * as its entries one at a time; UpdateMode::Batched charges the
     * per-replica ring hop once per (replica, table).
     */
    void setPtes(pt::RootSet &roots, pt::PteLoc loc,
                 const pt::Pte *values, unsigned count, int level,
                 pvops::KernelCost *cost) override;

    /** Purges queued messages aimed at the freed replica set. */
    void releasePtPage(pt::RootSet &roots, Pfn pfn,
                       pvops::KernelCost *cost) override;

    bool onTranslationFault(pt::RootSet &roots, SocketId socket,
                            VirtAddr va, pvops::KernelCost *cost) override;

    const char *name() const override { return "mitosis-lazy"; }

    const LazyStats &lazyStats() const { return lstats; }

    /** Pending messages for @p socket (diagnostics / tests). */
    std::size_t pendingFor(SocketId socket) const;

  protected:
    /** Purges queued messages aimed at the freed replica. */
    void freeReplica(Pfn replica, pvops::KernelCost *cost) override;

  private:
    /** One queued replica update. */
    struct Update
    {
        Pfn replicaPfn;
        unsigned index;
        pt::Pte value;
        int level;
    };

    /**
     * Queue-or-eager decision for one replica entry. @p charge_hop
     * controls whether the per-entry ring-hop cost is charged here
     * (default modes) or was already charged per table (Batched).
     */
    void propagateToReplica(Pfn replica, unsigned index, pt::Pte value,
                            int level, bool charge_hop,
                            pvops::KernelCost *cost);

    /**
     * Drop pending messages aimed at @p pfn: applied after the frame
     * is freed, they would write into a freed (possibly reused) frame.
     */
    void dropUpdatesTo(Pfn pfn);

    std::vector<std::deque<Update>> queues; //!< per socket
    LazyStats lstats;
};

} // namespace mitosim::core

#endif // MITOSIM_CORE_LAZY_BACKEND_H
