#include "memory_hierarchy.h"

namespace mitosim::sim
{

MemoryHierarchy::MemoryHierarchy(numa::Topology &topology,
                                 const HierarchyConfig &config)
    : topo(topology), cfg(config)
{
    l1d.reserve(static_cast<std::size_t>(topo.numCores()));
    for (int c = 0; c < topo.numCores(); ++c)
        l1d.emplace_back(cfg.l1dBytes, cfg.l1dWays);
    l3.reserve(static_cast<std::size_t>(topo.numSockets()));
    for (SocketId s = 0; s < topo.numSockets(); ++s)
        l3.emplace_back(cfg.l3BytesPerSocket, cfg.l3Ways);
}

} // namespace mitosim::sim
