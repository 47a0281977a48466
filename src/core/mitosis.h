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
 *    eager (or lazy) release of the source copies (§5.5);
 *  - carries the policy surface of §6: a system-wide 4-state knob and the
 *    per-process replication bitmask behind
 *    numa_set_pgtable_replication_mask().
 */

#ifndef MITOSIM_CORE_MITOSIS_H
#define MITOSIM_CORE_MITOSIS_H

#include <cstdint>
#include <utility>

#include "src/base/socket_mask.h"
#include "src/mem/physical_memory.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pvops/pvops.h"

namespace mitosim::core
{

/** §6.1: the system-wide policy states exposed via sysctl. */
enum class SystemPolicy
{
    Disabled,     //!< Mitosis off: behave exactly like the native backend
    PerProcess,   //!< replicate only for processes with a non-empty mask
    FixedSocket,  //!< force all PT allocations onto one socket (analysis)
    AllProcesses, //!< replicate to all sockets for every process
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

/** Tunables. */
struct MitosisConfig
{
    SystemPolicy policy = SystemPolicy::PerProcess;
    SocketId fixedSocket = 0; //!< for SystemPolicy::FixedSocket
    UpdateMode updateMode = UpdateMode::CircularList;

    /**
     * After migration, free the source replica eagerly (default) or keep
     * it consistent for a cheap migrate-back (§5.5).
     */
    bool eagerFreeOnMigration = true;

    /** Migrate page-tables when the kernel migrates a process. */
    bool migrateOnProcessMove = true;

    /**
     * §5.3 schedule-driven replication: instead of replicating to every
     * socket up front, grow the replica set lazily — the first timeslice
     * a thread gets on a new socket (onThreadScheduled) replicates the
     * tree there. Under SystemPolicy::AllProcesses this narrows the
     * eager "replicate everywhere" to "replicate where scheduled";
     * under PerProcess it extends an explicitly opted-in process's
     * mask to sockets the scheduler actually uses. Off by default:
     * the pinned kernel never fires the hook and eager benches keep
     * their up-front replica sets.
     */
    bool scheduleDriven = false;
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

    /** sysctl: change the system-wide state. */
    void setSystemPolicy(SystemPolicy policy, SocketId fixed_socket = 0);
    SystemPolicy systemPolicy() const { return cfg.policy; }

    /**
     * The numa_set_pgtable_replication_mask() syscall: replicate the
     * process's page-table onto every socket in @p mask (walking and
     * copying the existing tree), or tear replicas down for an empty
     * mask. No-op under SystemPolicy::Disabled.
     *
     * @return true if the mask was applied.
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
     * replicate-to-target; source copies are freed eagerly or kept
     * (lazily releasable) per configuration.
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

    void onProcessMigrated(pt::RootSet &roots, ProcId owner, SocketId from,
                           SocketId to, pvops::KernelCost *cost) override;

    /** §5.3: first timeslice on a new socket grows the replica set. */
    void onThreadScheduled(pt::RootSet &roots, ProcId owner,
                           SocketId socket,
                           pvops::KernelCost *cost) override;

    const char *name() const override { return "mitosis"; }

    /// @}

    const MitosisStats &stats() const { return stats_; }
    void resetStats() { stats_ = MitosisStats{}; }
    const MitosisConfig &config() const { return cfg; }

    /**
     * Attach the owning machine's observability sinks. The backend is
     * constructed from a PhysicalMemory alone (no Machine in reach),
     * so snapshot::Universe wires this after construction; a detached
     * backend (nulls, e.g. one built by hand in a test or bench) skips
     * every metric/trace emission.
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::Tracer *tracer);

    /**
     * Snapshot restore: adopt the cumulative counters of @p src (the
     * backend's only state — page-table contents live in the
     * PhysicalMemory the fork restores separately).
     */
    void cloneStateFrom(const MitosisBackend &src) { stats_ = src.stats_; }

  protected:
    /** Mask in force for new PT pages of a process. */
    SocketMask effectiveMask(const pt::RootSet &roots) const;

    /** Allocate one PT page honoring the FixedSocket analysis policy. */
    Pfn allocSingle(ProcId owner, int level, SocketId hint,
                    pvops::KernelCost *cost);

    /**
     * Ensure a replica of the subtree rooted at @p src exists on
     * @p target; returns the target-socket copy of @p src.
     */
    Pfn replicateSubtree(Pfn src, int level, SocketId target, ProcId owner,
                         pvops::KernelCost *cost);

    /**
     * Allocate a level-@p level page on @p socket and link it into
     * @p base's replica ring, charging, counting and tracing it.
     * @return the new replica, or InvalidPfn (a degraded allocation).
     */
    Pfn createReplica(Pfn base, int level, SocketId socket, ProcId owner,
                      pvops::KernelCost *cost);

    /**
     * Unlink and free replica page @p replica, charging, counting and
     * tracing it. Every replica free goes through here (release, mask
     * shrink, eager migration), which is what the lazy backend hooks.
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

    /** Primary store of @p values[0..count) at @p loc, localized. */
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
    obs::Tracer *trc_ = nullptr;
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
