#include "lazy_backend.h"

#include "src/base/logging.h"
#include "src/pvops/costs.h"

namespace mitosim::core
{

LazyMitosisBackend::LazyMitosisBackend(mem::PhysicalMemory &physmem,
                                       const MitosisConfig &config)
    : MitosisBackend(physmem, config),
      queues(static_cast<std::size_t>(physmem.topology().numSockets()))
{
}

void
LazyMitosisBackend::propagateToReplica(Pfn replica, unsigned index,
                                       pt::Pte value, int level,
                                       bool charge_hop,
                                       pvops::KernelCost *cost)
{
    // Installs are deferred as messages; changes to a present entry
    // must stay eager (see header).
    pt::Pte existing{mem.tableView(replica)[index]};
    if (!existing.present() && value.present()) {
        auto &q = queues[static_cast<std::size_t>(mem.socketOf(replica))];
        q.push_back(Update{replica, index, value, level});
        ++lstats.queued;
        lstats.maxQueueDepth =
            std::max<std::uint64_t>(lstats.maxQueueDepth, q.size());
        if (charge_hop && cost)
            cost->charge(pvops::ReplicaHopCost); // enqueue bookkeeping
    } else {
        if (charge_hop)
            chargeLocate(cost);
        writeReplicaEntry(replica, index, value, level, cost);
        ++lstats.eagerFallbacks;
    }
}

void
LazyMitosisBackend::setPtes(pt::RootSet &roots, pt::PteLoc loc,
                            const pt::Pte *values, unsigned count,
                            int level, pvops::KernelCost *cost)
{
    // Unreplicated pages: nothing to defer.
    if (nextReplica(loc.ptPfn) == loc.ptPfn) {
        MitosisBackend::setPtes(roots, loc, values, count, level, cost);
        return;
    }

    bool batched = config().updateMode == UpdateMode::Batched;
    writePrimaryEntries(loc, values, count, level, cost);

    Pfn p = nextReplica(loc.ptPfn);
    while (p != loc.ptPfn) {
        if (batched)
            chargeLocate(cost);
        for (unsigned k = 0; k < count; ++k)
            propagateToReplica(p, loc.index + k, values[k], level,
                               /*charge_hop=*/!batched, cost);
        p = nextReplica(p);
    }
}

void
LazyMitosisBackend::dropUpdatesTo(Pfn pfn)
{
    for (auto &q : queues)
        std::erase_if(q,
                      [pfn](const Update &u) { return u.replicaPfn == pfn; });
}

void
LazyMitosisBackend::releasePtPage(pt::RootSet &roots, Pfn pfn,
                                  pvops::KernelCost *cost)
{
    // The primary page may itself be a message target (a replica that
    // migratePageTables promoted); the base frees the rest of the set
    // through freeReplica.
    dropUpdatesTo(pfn);
    MitosisBackend::releasePtPage(roots, pfn, cost);
}

void
LazyMitosisBackend::freeReplica(Pfn replica, pvops::KernelCost *cost)
{
    dropUpdatesTo(replica);
    MitosisBackend::freeReplica(replica, cost);
}

bool
LazyMitosisBackend::onTranslationFault(pt::RootSet &roots, SocketId socket,
                                       VirtAddr va,
                                       pvops::KernelCost *cost)
{
    (void)roots;
    (void)va;
    MITOSIM_ASSERT(socket >= 0 &&
                   socket < static_cast<SocketId>(queues.size()));
    auto &q = queues[static_cast<std::size_t>(socket)];
    if (q.empty())
        return false;

    // Batch-apply every pending message for this socket (the fault
    // handler is the message-processing point, §7.2).
    ++lstats.drains;
    while (!q.empty()) {
        Update u = q.front();
        q.pop_front();
        writeReplicaEntry(u.replicaPfn, u.index, u.value, u.level, cost);
        ++lstats.applied;
    }
    if (cost)
        cost->charge(pvops::FaultFixedCost);
    return true;
}

std::size_t
LazyMitosisBackend::pendingFor(SocketId socket) const
{
    MITOSIM_ASSERT(socket >= 0 &&
                   socket < static_cast<SocketId>(queues.size()));
    return queues[static_cast<std::size_t>(socket)].size();
}

} // namespace mitosim::core
