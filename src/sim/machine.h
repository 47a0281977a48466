/**
 * @file
 * The simulated machine: topology + physical memory + cache hierarchy +
 * cores. Pure hardware; the OS layer (os::Kernel) runs "on top" and
 * registers the fault handler.
 */

#ifndef MITOSIM_SIM_MACHINE_H
#define MITOSIM_SIM_MACHINE_H

#include <memory>
#include <vector>

#include "src/mem/physical_memory.h"
#include "src/numa/topology.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/core.h"
#include "src/sim/memory_hierarchy.h"
#include "src/tlb/paging_structure_cache.h"
#include "src/tlb/tlb.h"

namespace mitosim::sim
{

/** Aggregate configuration; defaults model the paper's testbed, scaled. */
struct MachineConfig
{
    numa::TopologyConfig topo;
    HierarchyConfig hier;
    tlb::TlbConfig tlb;
    tlb::PwcConfig pwc;

    /** A small machine for unit tests: 2 sockets x 2 cores x 64 MiB. */
    static MachineConfig
    tiny()
    {
        MachineConfig cfg;
        cfg.topo.numSockets = 2;
        cfg.topo.coresPerSocket = 2;
        cfg.topo.memPerSocket = 64ull << 20;
        cfg.hier.l3BytesPerSocket = 256ull << 10;
        return cfg;
    }
};

/** The hardware. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    numa::Topology &topology() { return topo; }
    const numa::Topology &topology() const { return topo; }
    mem::PhysicalMemory &physmem() { return mem_; }
    MemoryHierarchy &hierarchy() { return hier; }

    /**
     * Observability (src/obs): per-machine — and therefore per-job —
     * metrics registry and event tracer. Deliberately NOT part of
     * cloneStateFrom: observability is host telemetry, not simulated
     * hardware state, so a fork starts with an empty registry and
     * bench::preparePopulated resets it after populate.
     */
    obs::MetricsRegistry &metrics() { return metrics_; }
    obs::Tracer &tracer() { return tracer_; }

    int numCores() const { return topo.numCores(); }
    int numSockets() const { return topo.numSockets(); }
    Core &core(CoreId id);

    /** Register the OS fault service routine (fanned out to all cores). */
    void setFaultHandler(FaultHandler fn, void *ctx);

    /**
     * Snapshot restore: adopt the complete hardware state of @p src —
     * physical memory (frames, metadata, page-table storage), every
     * cache, every core's TLB/PWC/CR3. Both machines must be built
     * from the same MachineConfig; @p src must carry no bandwidth
     * interferers (donors are captured before interferers attach).
     */
    void cloneStateFrom(const Machine &src);

    const MachineConfig &config() const { return cfg; }

  private:
    MachineConfig cfg;
    numa::Topology topo;
    mem::PhysicalMemory mem_;
    MemoryHierarchy hier;
    std::vector<std::unique_ptr<Core>> cores;
    obs::MetricsRegistry metrics_;
    obs::Tracer tracer_;
};

} // namespace mitosim::sim

#endif // MITOSIM_SIM_MACHINE_H
