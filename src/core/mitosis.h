/**
 * @file
 * Mitosis: transparently self-replicating page-tables (the paper's core
 * contribution, §4-§6).
 *
 * MitosisBackend is a PV-Ops backend that
 *  - allocates page-table pages as *replica sets* (one page per socket in
 *    the process's replication mask), linked through the circular
 *    struct-page list of Figure 8;
 *  - eagerly propagates every PTE store to all replicas, rewriting
 *    non-leaf entries so each replica's upper levels point at that
 *    socket's copy of the child table (semantic, not bytewise,
 *    replication — §2.3);
 *  - ORs hardware-written Accessed/Dirty bits across replicas on reads
 *    and clears them everywhere (§5.4);
 *  - supplies per-socket CR3 values so a scheduled thread walks its local
 *    replica (§5.3);
 *  - implements page-table *migration* as replicate-to-target followed by
 *    eager release of the source copies (§5.5);
 *  - carries the policy surface of §6: a system-wide policy (the
 *    paper's sysctl, fixed here when the backend is built) and the
 *    per-process replication bitmask behind
 *    numa_set_pgtable_replication_mask().
 *
 * "Mitosis off" is the native backend, and pinning page-table pages to
 * one socket is the per-process pt::PtPlacement::Fixed
 * (Kernel::setPtPlacement); neither is a policy state here.
 */

#ifndef MITOSIM_CORE_MITOSIS_H
#define MITOSIM_CORE_MITOSIS_H

#include <cstdint>
#include <utility>

#include "src/base/socket_mask.h"
#include "src/mem/physical_memory.h"
#include "src/obs/metrics.h"
#include "src/pvops/pvops.h"

namespace mitosim::core
{

/** §6.1: the system-wide policy states the paper exposes via sysctl. */
enum class SystemPolicy
{
    /** Replicate only for processes that set a non-empty mask. */
    PerProcess,

    /**
     * Replicate every process, where it is scheduled (§5.3): the first
     * timeslice a thread gets on a socket the process has no replica
     * on (onThreadScheduled) grows its mask by that socket. The policy
     * acts only through that hook, which only the time-shared
     * scheduler fires, so a pinned kernel never replicates under it.
     */
    AllProcesses,
};

/** §5.2: how replica locations are found on an update. */
enum class UpdateMode
{
    CircularList, //!< struct-page list: 2N references per update (Fig 8)
    WalkReplicas, //!< walk each replica tree: 4N references (the strawman)

    /**
     * Range-op extension (not in the paper): batched setPtes calls
     * charge the struct-page locate once per (replica, table) instead
     * of once per entry — the "2 refs per table" amortization a
     * range-first kernel makes possible. Single-entry updates behave
     * exactly like CircularList, so only genuinely batched operations
     * (munmap/mprotect/populate over ranges) get cheaper.
     */
    Batched,
};

/** Tunables, fixed when the backend is built. */
struct MitosisConfig
{
    SystemPolicy policy = SystemPolicy::PerProcess;
    UpdateMode updateMode = UpdateMode::CircularList;
};

/** Replication activity counters. */
struct MitosisStats
{
    std::uint64_t replicaPagesCreated = 0;
    std::uint64_t replicaPagesFreed = 0;
    std::uint64_t eagerUpdates = 0;      //!< propagated PTE stores
    std::uint64_t replicaRefsOnUpdate = 0; //!< memory refs those stores cost
    std::uint64_t adMergedReads = 0;     //!< OR-ed A/D reads
    std::uint64_t treeReplications = 0;  //!< full-tree replicate calls
    std::uint64_t treeMigrations = 0;    //!< §5.5 migrations
    std::uint64_t degradedAllocs = 0;    //!< replica alloc failures
    std::uint64_t scheduleReplications = 0; //!< §5.3 first-timeslice builds
    std::uint64_t hugeCollapses = 0;     //!< THP collapses applied ring-wide
    std::uint64_t hugeSplits = 0;        //!< THP demotions applied ring-wide
};

/** The Mitosis PV-Ops backend. */
class MitosisBackend : public pvops::PvOps
{
  public:
    explicit MitosisBackend(mem::PhysicalMemory &physmem,
                            const MitosisConfig &config = MitosisConfig{});

    /// @name Policy surface (§6)
    /// @{

    /**
     * The numa_set_pgtable_replication_mask() syscall: replicate the
     * process's page-table onto every socket in @p mask (walking and
     * copying the existing tree), or tear replicas down for an empty
     * mask.
     *
     * @return true: the mask is always applied.
     */
    bool setReplicationMask(pt::RootSet &roots, ProcId owner,
                            SocketMask mask,
                            pvops::KernelCost *cost = nullptr);

    /** numa_get_pgtable_replication_mask(). */
    SocketMask replicationMask(const pt::RootSet &roots) const
    {
        return roots.replicaMask;
    }

    /**
     * §5.5: migrate the page-table to @p target. Implemented as
     * replicate-to-target, then every non-target copy is freed.
     *
     * @return false if the target root could not be allocated.
     */
    bool migratePageTables(pt::RootSet &roots, ProcId owner,
                           SocketId target,
                           pvops::KernelCost *cost = nullptr);

    /// @}
    /// @name PV-Ops implementation (§5)
    /// @{

    Pfn allocPtPage(pt::RootSet &roots, ProcId owner, int level,
                    SocketId hint_socket, pvops::KernelCost *cost) override;

    void releasePtPage(pt::RootSet &roots, Pfn pfn,
                       pvops::KernelCost *cost) override;

    /**
     * Stores into one table, propagated eagerly to every replica: the
     * ring is chased once per table and the entries streamed into each
     * copy. A run charges what its entries would one at a time under
     * CircularList / WalkReplicas; UpdateMode::Batched charges the
     * replica locate once per (replica, table).
     */
    void setPtes(pt::RootSet &roots, pt::PteLoc loc,
                 const pt::Pte *values, unsigned count, int level,
                 pvops::KernelCost *cost) override;

    /**
     * THP lifecycle hooks: the base-class composition over this
     * backend's own setPtes/allocPtPage/releasePtPage already
     * rewrites the leaf level in every replica (one ring locate per
     * replica per table, the batched-update model) and frees/creates
     * whole replica sets; these overrides only count the events so the
     * per-replica view can be cross-checked against the OS-side
     * ThpStats.
     */
    void collapseRange(pt::RootSet &roots, pt::PteLoc dir_loc,
                       pt::Pte huge, Pfn leaf_table,
                       pvops::KernelCost *cost) override;

    bool splitHuge(pt::RootSet &roots, ProcId owner, pt::PteLoc dir_loc,
                   const pt::Pte *values, SocketId hint_socket,
                   pvops::KernelCost *cost) override;

    /** One ring traversal, n-fold read charges (A/D merge incl.). */
    pt::Pte readPteMany(const pt::RootSet &roots, pt::PteLoc loc,
                        unsigned n, pvops::KernelCost *cost) const override;

    void clearAccessedDirty(pt::RootSet &roots, pt::PteLoc loc,
                            std::uint64_t bits,
                            pvops::KernelCost *cost) override;

    Pfn cr3For(const pt::RootSet &roots, SocketId socket) const override;

    /**
     * §5.5: the kernel moved the process to @p to; migrate its tree
     * there unless a replica on @p to already exists.
     */
    void onProcessMigrated(pt::RootSet &roots, ProcId owner, SocketId to,
                           pvops::KernelCost *cost) override;

    /**
     * §5.3: under SystemPolicy::AllProcesses, the first timeslice on a
     * socket outside the mask grows the replica set; a no-op otherwise.
     */
    void onThreadScheduled(pt::RootSet &roots, ProcId owner,
                           SocketId socket,
                           pvops::KernelCost *cost) override;

    const char *name() const override { return "mitosis"; }

    /// @}

    const MitosisStats &stats() const { return stats_; }
    const MitosisConfig &config() const { return cfg; }

    /**
     * Attach the owning machine's metrics registry. The backend is
     * constructed from a PhysicalMemory alone (no Machine in reach),
     * so snapshot::Universe wires this after construction; a detached
     * backend (e.g. one built by hand in a test) skips every metric.
     */
    void attachObs(obs::MetricsRegistry &metrics);

    /**
     * Snapshot restore: adopt the cumulative counters of @p src (the
     * backend's only state — page-table contents live in the
     * PhysicalMemory the fork restores separately).
     */
    void cloneStateFrom(const MitosisBackend &src) { stats_ = src.stats_; }

  protected:
    /**
     * Ensure a replica of the subtree rooted at @p src exists on
     * @p target; returns the target-socket copy of @p src.
     */
    Pfn replicateSubtree(Pfn src, int level, SocketId target, ProcId owner,
                         pvops::KernelCost *cost);

    /**
     * Allocate a level-@p level page on @p socket and link it into
     * @p base's replica ring, charging and counting it.
     * @return the new replica, or InvalidPfn (a degraded allocation).
     */
    Pfn createReplica(Pfn base, int level, SocketId socket, ProcId owner,
                      pvops::KernelCost *cost);

    /**
     * Unlink and free replica page @p replica, charging and counting
     * it. Every replica free goes through here (release, mask shrink,
     * migration), which is what the lazy backend hooks.
     */
    virtual void freeReplica(Pfn replica, pvops::KernelCost *cost);

    /** Write @p value into replica page @p replica, fixing child links. */
    void writeReplicaEntry(Pfn replica, unsigned index, pt::Pte value,
                           int level, pvops::KernelCost *cost);

    /** Next page in @p pfn's replica ring (a read: the const meta()). */
    Pfn
    nextReplica(Pfn pfn) const
    {
        return std::as_const(mem).meta(pfn).replicaNext;
    }

    /** Charge @p n replica locates for the configured mode. */
    void chargeLocate(pvops::KernelCost *cost, unsigned n = 1) const;

    /**
     * @p value with a non-leaf child pointer redirected to the child
     * replica local to the socket holding @p table (no-op for leaves).
     */
    pt::Pte localizedValue(Pfn table, pt::Pte value, int level) const;

    /**
     * Primary store of @p values[0..count) at @p loc, localized,
     * charging the page-meta indirection (per entry, or once per call
     * under UpdateMode::Batched) and the stores. Every setPtes of a
     * Mitosis backend, eager or lazy, calls it once.
     */
    void writePrimaryEntries(pt::PteLoc loc, const pt::Pte *values,
                             unsigned count, int level,
                             pvops::KernelCost *cost);

    /** Null-safe counter bump for detached backends. */
    static void
    bump(obs::Counter *c, std::uint64_t n = 1)
    {
        if (c)
            c->inc(n);
    }

    mem::PhysicalMemory &mem;
    MitosisConfig cfg;
    MitosisStats stats_;

    /// @name Observability handles (null until attachObs)
    /// @{
    obs::Counter *mReplCreated = nullptr;
    obs::Counter *mReplFreed = nullptr;
    obs::Gauge *gReplLive = nullptr;
    obs::Counter *mEagerUpdates = nullptr;
    obs::Counter *mTreeRepl = nullptr;
    obs::Counter *mTreeMigr = nullptr;
    obs::Counter *mSchedRepl = nullptr;
    /// @}
};

} // namespace mitosim::core

#endif // MITOSIM_CORE_MITOSIS_H
