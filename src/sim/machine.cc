#include "machine.h"

#include "src/base/logging.h"

namespace mitosim::sim
{

Machine::Machine(const MachineConfig &config)
    : cfg(config), topo(cfg.topo), mem_(topo), hier(topo, cfg.hier)
{
    cores.reserve(static_cast<std::size_t>(topo.numCores()));
    for (CoreId c = 0; c < topo.numCores(); ++c)
        cores.push_back(
            std::make_unique<Core>(c, hier, mem_, cfg.tlb, cfg.pwc));
}

Core &
Machine::core(CoreId id)
{
    MITOSIM_ASSERT(id >= 0 && id < numCores(), "core id out of range");
    return *cores[static_cast<std::size_t>(id)];
}

void
Machine::cloneStateFrom(const Machine &src)
{
    MITOSIM_ASSERT(topo.numCores() == src.topo.numCores() &&
                       topo.numSockets() == src.topo.numSockets(),
                   "cloneStateFrom: machine shape mismatch");
    for (SocketId s = 0; s < topo.numSockets(); ++s)
        MITOSIM_ASSERT(!src.topo.hasInterferer(s),
                       "cloneStateFrom: donor has a live interferer");
    mem_.cloneStateFrom(src.mem_);
    hier.cloneStateFrom(src.hier);
    for (std::size_t i = 0; i < cores.size(); ++i)
        cores[i]->cloneStateFrom(*src.cores[i]);
}

void
Machine::setFaultHandler(FaultHandler fn, void *ctx)
{
    for (auto &c : cores)
        c->setFaultHandler(fn, ctx);
}

} // namespace mitosim::sim
