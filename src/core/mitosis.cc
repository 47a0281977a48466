#include "mitosis.h"

#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/pt/operations.h"
#include "src/pt/pte.h"
#include "src/pvops/costs.h"
#include "src/pvops/native_backend.h"

namespace mitosim::core
{

using pvops::KernelCost;

namespace
{

/** Tiny extra cost of the PV-Ops indirection itself (Table 6). */
constexpr Cycles IndirectionCost = 1;

} // namespace

MitosisBackend::MitosisBackend(mem::PhysicalMemory &physmem,
                               const MitosisConfig &config)
    : mem(physmem), cfg(config)
{
}

void
MitosisBackend::attachObs(obs::MetricsRegistry &metrics)
{
    mReplCreated = &metrics.counter("mitosis_replica_pages_created");
    mReplFreed = &metrics.counter("mitosis_replica_pages_freed");
    gReplLive = &metrics.gauge("mitosis_replica_pages_live");
    mEagerUpdates = &metrics.counter("mitosis_eager_updates");
    mTreeRepl = &metrics.counter("mitosis_tree_replications");
    mTreeMigr = &metrics.counter("mitosis_tree_migrations");
    mSchedRepl = &metrics.counter("mitosis_schedule_replications");
}

Pfn
MitosisBackend::allocPtPage(pt::RootSet &roots, ProcId owner, int level,
                            SocketId hint_socket, KernelCost *cost)
{
    if (cost)
        cost->charge(IndirectionCost);

    // New page-table pages replicate onto the process's mask: the
    // sockets it opted into, or (AllProcesses) the ones it has been
    // scheduled on so far — §5.3's lazy allocation.
    SocketMask mask = roots.replicaMask;
    if (mask.empty())
        return pvops::allocPtFrame(mem, owner, level, hint_socket, cost);

    // Replicated allocation: one page per socket in the mask, linked into
    // a circular list. The primary copy lives on the hint socket when the
    // hint is in the mask, otherwise on the mask's first socket.
    SocketId primary_socket =
        mask.contains(hint_socket) ? hint_socket : mask.first();

    // Only the non-primary copies count as replica pages (createReplica
    // here, freeReplica on the free side) — the counters must conserve
    // against the live ring population (vmcheck class 5).
    Pfn primary =
        pvops::allocPtFrame(mem, owner, level, primary_socket, cost);
    if (primary == InvalidPfn)
        return InvalidPfn;

    // A failed replica allocation is degraded, not fatal: that socket
    // simply won't get a local copy.
    for (SocketId s = mask.first(); s != InvalidSocket;
         s = mask.nextAfter(s)) {
        if (s != mem.socketOf(primary))
            createReplica(primary, level, s, owner, cost);
    }
    return primary;
}

void
MitosisBackend::releasePtPage(pt::RootSet &roots, Pfn pfn, KernelCost *cost)
{
    (void)roots;
    if (cost)
        cost->charge(IndirectionCost);
    // Free the whole replica set, the primary page first.
    std::vector<Pfn> pages;
    mem.forEachReplica(pfn, [&](Pfn p) { pages.push_back(p); });
    mem.unlinkReplica(pfn);
    mem.freePt(pfn);
    if (cost) {
        cost->charge(pvops::PageFreeCost);
        ++cost->ptPagesFreed;
    }
    for (std::size_t i = 1; i < pages.size(); ++i)
        freeReplica(pages[i], cost);
}

Pfn
MitosisBackend::createReplica(Pfn base, int level, SocketId socket,
                              ProcId owner, KernelCost *cost)
{
    auto page = mem.allocPt(socket, level, owner);
    if (!page) {
        ++stats_.degradedAllocs;
        return InvalidPfn;
    }
    if (cost) {
        cost->charge(pvops::PtPageSetupCost);
        ++cost->ptPagesAllocated;
    }
    mem.linkReplica(base, *page);
    ++stats_.replicaPagesCreated;
    bump(mReplCreated);
    if (gReplLive)
        gReplLive->add(1);
    return *page;
}

void
MitosisBackend::freeReplica(Pfn replica, KernelCost *cost)
{
    mem.unlinkReplica(replica);
    mem.freePt(replica);
    if (cost) {
        cost->charge(pvops::PageFreeCost);
        ++cost->ptPagesFreed;
    }
    ++stats_.replicaPagesFreed;
    bump(mReplFreed);
    if (gReplLive)
        gReplLive->sub(1);
}

void
MitosisBackend::chargeLocate(KernelCost *cost, unsigned n) const
{
    if (!cost)
        return;
    if (cfg.updateMode != UpdateMode::WalkReplicas) {
        // One struct-page pointer chase per replica (2N total refs: N
        // writes + N metadata reads, §5.2).
        cost->charge(pvops::ReplicaHopCost * n);
        cost->replicaHops += n;
    } else {
        // Walk the replica's tree from its root: 4 steps on x86-64.
        cost->charge(4 * pvops::ReplicaWalkStepCost * n);
    }
}

void
MitosisBackend::writeReplicaEntry(Pfn replica, unsigned index,
                                  pt::Pte value, int level,
                                  KernelCost *cost)
{
    // Non-leaf present entries point at child page-table pages; each
    // replica must reference the child copy on its own socket (semantic
    // replication, §2.3). Leaf entries (L1, or L2 with PS) are copied
    // verbatim — data frames are shared by all replicas.
    mem.table(replica)[index] =
        localizedValue(replica, value, level).raw();
    if (cost) {
        cost->charge(pvops::PteRemoteWriteCost);
        ++cost->replicaWrites;
    }
    ++stats_.eagerUpdates;
    ++stats_.replicaRefsOnUpdate;
    bump(mEagerUpdates);
}

pt::Pte
MitosisBackend::localizedValue(Pfn table, pt::Pte value, int level) const
{
    // Replica trees are symmetric: the copy in @p table must reference
    // the child replica local to *its* socket (the tree a core walks
    // must never leave its socket when a local child exists).
    bool non_leaf = value.present() && level > 1 &&
                    !(level == 2 && value.huge());
    if (non_leaf && std::as_const(mem).meta(value.pfn()).isPageTable()) {
        Pfn local_child =
            mem.replicaOnSocket(value.pfn(), mem.socketOf(table));
        if (local_child != InvalidPfn)
            return value.withPfn(local_child);
    }
    return value;
}

void
MitosisBackend::writePrimaryEntries(pt::PteLoc loc, const pt::Pte *values,
                                    unsigned count, int level,
                                    KernelCost *cost)
{
    std::uint64_t *primary = mem.table(loc.ptPfn) + loc.index;
    for (unsigned k = 0; k < count; ++k)
        primary[k] = localizedValue(loc.ptPfn, values[k], level).raw();
    if (cost) {
        bool batched = cfg.updateMode == UpdateMode::Batched;
        cost->charge(batched ? IndirectionCost : IndirectionCost * count);
        cost->charge(pvops::PteWriteCost * count);
        cost->pteWrites += count;
    }
}

void
MitosisBackend::setPtes(pt::RootSet &roots, pt::PteLoc loc,
                        const pt::Pte *values, unsigned count, int level,
                        KernelCost *cost)
{
    (void)roots;
    bool batched = cfg.updateMode == UpdateMode::Batched;
    writePrimaryEntries(loc, values, count, level, cost);

    // Eager propagation along the circular list (Figure 8): one ring
    // traversal per table, each replica gets the whole run streamed.
    // Under the default modes the locate is charged per entry; Batched
    // charges it once per (replica, table) — the range-op amortization.
    Pfn p = nextReplica(loc.ptPfn);
    while (p != loc.ptPfn) {
        chargeLocate(cost, batched ? 1 : count);
        std::uint64_t *replica = mem.table(p) + loc.index;
        for (unsigned k = 0; k < count; ++k)
            replica[k] = localizedValue(p, values[k], level).raw();
        if (cost) {
            cost->charge(pvops::PteRemoteWriteCost * count);
            cost->replicaWrites += count;
        }
        stats_.eagerUpdates += count;
        stats_.replicaRefsOnUpdate += count;
        bump(mEagerUpdates, count);
        p = nextReplica(p);
    }
}

void
MitosisBackend::collapseRange(pt::RootSet &roots, pt::PteLoc dir_loc,
                              pt::Pte huge, Pfn leaf_table,
                              KernelCost *cost)
{
    ++stats_.hugeCollapses;
    PvOps::collapseRange(roots, dir_loc, huge, leaf_table, cost);
}

bool
MitosisBackend::splitHuge(pt::RootSet &roots, ProcId owner,
                          pt::PteLoc dir_loc, const pt::Pte *values,
                          SocketId hint_socket, KernelCost *cost)
{
    if (!PvOps::splitHuge(roots, owner, dir_loc, values, hint_socket,
                          cost))
        return false;
    ++stats_.hugeSplits;
    return true;
}

pt::Pte
MitosisBackend::readPteMany(const pt::RootSet &roots, pt::PteLoc loc,
                            unsigned n, KernelCost *cost) const
{
    (void)roots;
    if (n == 0)
        return pt::Pte{};
    if (cost)
        cost->charge((IndirectionCost + pvops::PteReadCost) * n);

    std::uint64_t raw = mem.tableView(loc.ptPfn)[loc.index];
    Pfn p = nextReplica(loc.ptPfn);
    if (p != loc.ptPfn) {
        // OR the hardware-written bits across every replica (§5.4).
        auto *self = const_cast<MitosisBackend *>(this);
        self->stats_.adMergedReads += n;
        while (p != loc.ptPfn) {
            raw |= mem.tableView(p)[loc.index] & pt::PteAdMask;
            // The ring pointer shares the struct-page line with other
            // metadata the read path already touched; charge only the
            // PTE loads themselves.
            if (cost)
                cost->charge(pvops::PteReadCost * n);
            p = nextReplica(p);
        }
    }
    return pt::Pte{raw};
}

Pfn
MitosisBackend::cr3For(const pt::RootSet &roots, SocketId socket) const
{
    return roots.rootFor(socket);
}

Pfn
MitosisBackend::replicateSubtree(Pfn src, int level, SocketId target,
                                 ProcId owner, KernelCost *cost)
{
    Pfn dst = mem.replicaOnSocket(src, target);
    bool fresh = dst == InvalidPfn;
    if (fresh) {
        dst = createReplica(src, level, target, owner, cost);
        if (dst == InvalidPfn)
            return InvalidPfn;
    }

    const std::uint64_t *src_tbl = mem.tableView(src);
    std::uint64_t *dst_tbl = mem.table(dst);
    for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
        pt::Pte entry{src_tbl[i]};
        if (!entry.present()) {
            if (fresh)
                dst_tbl[i] = entry.raw();
            continue;
        }
        bool leaf = (level == 1) || (level == 2 && entry.huge());
        if (leaf) {
            dst_tbl[i] = entry.raw();
        } else {
            Pfn child_copy = replicateSubtree(entry.pfn(), level - 1,
                                              target, owner, cost);
            dst_tbl[i] = (child_copy != InvalidPfn)
                             ? entry.withPfn(child_copy).raw()
                             : entry.raw(); // degraded cross-socket link
        }
        if (cost) {
            cost->charge(pvops::PteWriteCost + pvops::PteReadCost);
            ++cost->pteWrites;
        }
    }
    return dst;
}

bool
MitosisBackend::setReplicationMask(pt::RootSet &roots, ProcId owner,
                                   SocketMask mask, KernelCost *cost)
{
    MITOSIM_ASSERT(roots.primaryRoot != InvalidPfn,
                   "setReplicationMask: process has no page-table");

    SocketMask old_mask = roots.replicaMask;

    // Build replicas for newly requested sockets.
    for (SocketId s = mask.first(); s != InvalidSocket;
         s = mask.nextAfter(s)) {
        if (s >= mem.topology().numSockets())
            fatal("replication mask names socket %d beyond topology", s);
        replicateSubtree(roots.primaryRoot, 4, s, owner, cost);
        ++stats_.treeReplications;
        bump(mTreeRepl);
    }

    // Tear down replicas for sockets no longer in the mask. Primary-tree
    // pages are never freed even if their socket leaves the mask.
    for (SocketId s = old_mask.first(); s != InvalidSocket;
         s = old_mask.nextAfter(s)) {
        if (mask.contains(s))
            continue;
        // Collect the s-replicas of the primary tree's pages (unless
        // the primary page itself is on s), then free them.
        std::vector<Pfn> to_free;
        pt::forEachTableUnder(mem, roots.primaryRoot, [&](Pfn table, int) {
            Pfn replica = mem.replicaOnSocket(table, s);
            if (replica != InvalidPfn && replica != table)
                to_free.push_back(replica);
        });
        for (Pfn p : to_free)
            freeReplica(p, cost);
    }

    roots.replicaMask = mask;
    for (SocketId s = 0; s < pt::MaxSockets; ++s) {
        Pfn root = (s < mem.topology().numSockets())
                       ? mem.replicaOnSocket(roots.primaryRoot, s)
                       : InvalidPfn;
        roots.perSocketRoot[static_cast<std::size_t>(s)] =
            (root != InvalidPfn && (mask.contains(s) ||
                                    root == roots.primaryRoot))
                ? root
                : roots.primaryRoot;
    }
    return true;
}

bool
MitosisBackend::migratePageTables(pt::RootSet &roots, ProcId owner,
                                  SocketId target, KernelCost *cost)
{
    MITOSIM_ASSERT(roots.primaryRoot != InvalidPfn,
                   "migratePageTables: process has no page-table");
    MITOSIM_ASSERT(target >= 0 && target < mem.topology().numSockets());

    // Step 1: replicate onto the target (§5.5: migration reuses the
    // replication machinery).
    Pfn new_root =
        replicateSubtree(roots.primaryRoot, 4, target, owner, cost);
    if (new_root == InvalidPfn)
        return false;
    ++stats_.treeMigrations;
    bump(mTreeMigr);

    roots.primaryRoot = new_root;

    // Step 2: free every non-target copy. Sweep the *new* tree; its
    // replica lists still link the old copies.
    pt::forEachTableUnder(mem, new_root, [&](Pfn table, int) {
        while (nextReplica(table) != table)
            freeReplica(nextReplica(table), cost);
    });
    roots.resetToPrimary();
    return true;
}

void
MitosisBackend::onProcessMigrated(pt::RootSet &roots, ProcId owner,
                                  SocketId to, KernelCost *cost)
{
    if (roots.replicated()) {
        // Fully replicated processes already have a local tree wherever
        // they land; nothing to migrate.
        if (roots.replicaMask.contains(to))
            return;
    }
    migratePageTables(roots, owner, to, cost);
}

void
MitosisBackend::onThreadScheduled(pt::RootSet &roots, ProcId owner,
                                  SocketId socket, KernelCost *cost)
{
    // PerProcess: a process's mask is what it set, never the schedule.
    if (cfg.policy != SystemPolicy::AllProcesses)
        return;
    if (roots.replicaMask.contains(socket))
        return; // not the first timeslice here: the replica exists
    SocketMask mask = roots.replicaMask;
    mask.set(socket);
    setReplicationMask(roots, owner, mask, cost);
    ++stats_.scheduleReplications;
    bump(mSchedRepl);
}

} // namespace mitosim::core
