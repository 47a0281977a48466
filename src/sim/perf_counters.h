/**
 * @file
 * Performance counters, the simulated analogue of the paper's perf
 * measurements ("execution cycles and TLB load and store miss walk cycles,
 * i.e. the cycles that the page walker is active for", §3.2).
 */

#ifndef MITOSIM_SIM_PERF_COUNTERS_H
#define MITOSIM_SIM_PERF_COUNTERS_H

#include <cstdint>

#include "src/base/types.h"

namespace mitosim::sim
{

/** Counter block; one per logical thread, aggregated for reporting. */
struct PerfCounters
{
    /// @name Cycle accounting
    /// @{
    Cycles cycles = 0;        //!< total execution cycles
    Cycles walkCycles = 0;    //!< cycles the page walker was active
    Cycles dataStallCycles = 0; //!< cycles in the data-side hierarchy
    Cycles kernelCycles = 0;  //!< cycles in fault/syscall handling
    Cycles computeCycles = 0; //!< non-memory work charged by workloads
    /// @}

    /// @name TLB
    /// @{
    std::uint64_t accesses = 0;
    std::uint64_t tlbL1Hits = 0;
    std::uint64_t tlbL2Hits = 0;
    std::uint64_t tlbMisses = 0;
    /// @}

    /// @name Page walks
    /// @{
    std::uint64_t walks = 0;
    std::uint64_t walkMemRefs = 0;   //!< PT reads issued by the walker
    std::uint64_t ptDramLocal = 0;   //!< walker refs served by local DRAM
    std::uint64_t ptDramRemote = 0;  //!< walker refs served by remote DRAM
    /// @}

    /// @name Data side
    /// @{
    std::uint64_t dataDramLocal = 0;
    std::uint64_t dataDramRemote = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l3LocalHits = 0;
    std::uint64_t l3RemoteHits = 0;
    /// @}

    /// @name OS events
    /// @{
    std::uint64_t pageFaults = 0;
    /** Scheduler switch-ins of this thread — including same-process
     *  handovers that keep CR3 loaded (Linux's same-mm fast path), so
     *  not every switch opens a post-switch refill window. */
    std::uint64_t contextSwitches = 0;
    /// @}

    /// @name Post-context-switch window (first accesses after a CR3 load)
    /// @{

    /**
     * TLB misses and the walk cycles they cost within the first
     * Core::PostSwitchWindow accesses after each CR3 load — the refill
     * tax a context switch levies. PCID keeps tagged entries alive
     * across switches and shrinks the miss count; page-table replicas
     * make the walks that do happen local and shrink the cycles.
     */
    std::uint64_t postSwitchTlbMisses = 0;
    Cycles postSwitchWalkCycles = 0;
    /// @}

    /// @name Walk-cycle attribution
    /// @{

    /**
     * walkCycles broken out by [walk level - 1][remote]: which radix
     * level the walker was resolving (0 = leaf PTE .. 3 = root) and
     * whether the page-table page it referenced lived on a different
     * socket than the walking core. Every cycle that lands in
     * walkCycles also lands in exactly one bucket, so the buckets sum
     * to walkCycles exactly — the signal replication policies act on
     * is the remote-leaf share collapsing (§3.2).
     */
    Cycles walkCyclesAttr[PtLevels][2] = {};
    /// @}

    /** Fraction of cycles spent walking page-tables (hashed bars). */
    double
    walkFraction() const
    {
        return cycles ? static_cast<double>(walkCycles) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Fraction of walker DRAM refs that were remote. */
    double
    remotePtFraction() const
    {
        std::uint64_t total = ptDramLocal + ptDramRemote;
        return total ? static_cast<double>(ptDramRemote) /
                           static_cast<double>(total)
                     : 0.0;
    }

    void
    add(const PerfCounters &o)
    {
        cycles += o.cycles;
        walkCycles += o.walkCycles;
        dataStallCycles += o.dataStallCycles;
        kernelCycles += o.kernelCycles;
        computeCycles += o.computeCycles;
        accesses += o.accesses;
        tlbL1Hits += o.tlbL1Hits;
        tlbL2Hits += o.tlbL2Hits;
        tlbMisses += o.tlbMisses;
        walks += o.walks;
        walkMemRefs += o.walkMemRefs;
        ptDramLocal += o.ptDramLocal;
        ptDramRemote += o.ptDramRemote;
        dataDramLocal += o.dataDramLocal;
        dataDramRemote += o.dataDramRemote;
        l1dHits += o.l1dHits;
        l3LocalHits += o.l3LocalHits;
        l3RemoteHits += o.l3RemoteHits;
        pageFaults += o.pageFaults;
        contextSwitches += o.contextSwitches;
        postSwitchTlbMisses += o.postSwitchTlbMisses;
        postSwitchWalkCycles += o.postSwitchWalkCycles;
        for (unsigned l = 0; l < PtLevels; ++l)
            for (int r = 0; r < 2; ++r)
                walkCyclesAttr[l][r] += o.walkCyclesAttr[l][r];
    }
};

} // namespace mitosim::sim

#endif // MITOSIM_SIM_PERF_COUNTERS_H
