/**
 * @file
 * The timing model: per-core L1D, per-socket shared L3, NUMA DRAM.
 *
 * Every simulated memory reference (data or page-table) is charged here.
 * The latency ladder follows the paper's platform: ~4 cycles L1, ~40
 * cycles local L3, a remote-L3 probe that is faster than remote DRAM
 * ("accessing a remote last-level cache may be faster than accessing
 * DRAM", §8.1), then local/remote DRAM at 280/580 cycles, doubled-ish on
 * sockets hosting a bandwidth interferer.
 *
 * Page-table lines and data lines share the L3, so data streaming evicts
 * PT entries naturally — the effect behind Figure 10b's GUPS result.
 * A freed frame's lines (a data page or a torn-down page-table page)
 * are not dropped: they age out under LRU like any other line.
 */

#ifndef MITOSIM_SIM_MEMORY_HIERARCHY_H
#define MITOSIM_SIM_MEMORY_HIERARCHY_H

#include <vector>

#include "src/base/logging.h"
#include "src/base/types.h"
#include "src/cache/set_assoc_cache.h"
#include "src/numa/topology.h"
#include "src/sim/perf_counters.h"

namespace mitosim::sim
{

/** What kind of line an access touches (for counter attribution). */
enum class AccessKind
{
    Data,
    PageTable,
};

/** Cache sizing and latency knobs. */
struct HierarchyConfig
{
    std::uint64_t l1dBytes = 32ull << 10; //!< per-core L1D
    unsigned l1dWays = 8;
    Cycles l1dHitLatency = 4;

    /**
     * Per-socket shared L3. The paper's machine has 35 MB for ~500 GB of
     * DRAM; we default to 1 MB against 4 GB/socket to preserve the
     * leaf-PTE-working-set vs L3 ratio (see EXPERIMENTS.md "Scaling:
     * 128 MiB footprints against a 64 KiB per-socket L3").
     */
    std::uint64_t l3BytesPerSocket = 1ull << 20;
    unsigned l3Ways = 16;
    Cycles l3HitLatency = 40;

    /** Remote-L3 probe (directory hit in the home socket's cache). */
    bool remoteL3ProbeEnabled = true;
    Cycles l3RemoteHitLatency = 300;
};

/** The full cache + DRAM timing model. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(numa::Topology &topology, const HierarchyConfig &config);

    /**
     * Perform (and charge) one reference to physical address @p pa from
     * @p core. Updates cache state and @p pc (if non-null).
     *
     * @return latency in cycles.
     */
    Cycles
    access(CoreId core, PhysAddr pa, bool is_write, AccessKind kind,
           PerfCounters *pc)
    {
        auto &my_l1 = l1d[static_cast<std::size_t>(core)];
        (void)is_write; // presence-only model: writes allocate like reads

        // Fused probe+fill: on a miss the line is installed now rather
        // than after the lower levels respond — state-identical, since
        // accessBelowL1 never touches the private L1.
        if (my_l1.probeInsert(pa)) {
            if (pc)
                ++pc->l1dHits;
            return cfg.l1dHitLatency;
        }

        Cycles below = accessBelowL1(core, pa, kind, pc);
        return cfg.l1dHitLatency + below;
    }

    /**
     * Snapshot restore: adopt every cache line (all L1Ds, all L3s) of
     * @p src, which must model the same topology and sizing.
     */
    void
    cloneStateFrom(const MemoryHierarchy &src)
    {
        MITOSIM_ASSERT(l1d.size() == src.l1d.size() &&
                           l3.size() == src.l3.size(),
                       "cloneStateFrom: hierarchy shape mismatch");
        l1d = src.l1d;
        l3 = src.l3;
    }

    const HierarchyConfig &config() const { return cfg; }
    numa::Topology &topology() { return topo; }

  private:
    /**
     * The shared part of an access: everything below the private L1D
     * (local L3, remote-L3 probe, DRAM). Touches only per-socket and
     * global state, never the per-core L1. Latency excludes the L1
     * charge.
     */
    Cycles
    accessBelowL1(CoreId core, PhysAddr pa, AccessKind kind,
                  PerfCounters *pc)
    {
        SocketId here = topo.socketOfCore(core);
        SocketId home = topo.socketOfPfn(addrToPfn(pa));
        auto &my_l3 = l3[static_cast<std::size_t>(here)];

        // A socket hosting a bandwidth interferer has its L3 continuously
        // thrashed by the interferer's stream; model it as always-miss.
        // Fused probe+fill: both miss continuations (remote hit, DRAM)
        // install the line locally, so doing it during the probe scan is
        // state-identical — the intervening probe hits a *different*
        // socket's cache.
        bool here_thrashed = topo.hasInterferer(here);
        if (!here_thrashed && my_l3.probeInsert(pa)) {
            if (pc)
                ++pc->l3LocalHits;
            return cfg.l3HitLatency;
        }

        // Remote-L3 probe: the home socket's cache may hold the line.
        if (cfg.remoteL3ProbeEnabled && home != here &&
            !topo.hasInterferer(home)) {
            auto &home_l3 = l3[static_cast<std::size_t>(home)];
            if (home_l3.lookup(pa)) {
                if (pc)
                    ++pc->l3RemoteHits;
                return cfg.l3RemoteHitLatency;
            }
        }

        // DRAM at the home socket.
        Cycles dram = topo.dramLatency(here, home);
        if (pc) {
            bool remote = here != home;
            if (kind == AccessKind::PageTable) {
                if (remote)
                    ++pc->ptDramRemote;
                else
                    ++pc->ptDramLocal;
            } else {
                if (remote)
                    ++pc->dataDramRemote;
                else
                    ++pc->dataDramLocal;
            }
        }
        return cfg.l3HitLatency + dram;
    }

    numa::Topology &topo;
    HierarchyConfig cfg;
    std::vector<cache::SetAssocCache> l1d; //!< per core
    std::vector<cache::SetAssocCache> l3;  //!< per socket
};

} // namespace mitosim::sim

#endif // MITOSIM_SIM_MEMORY_HIERARCHY_H
