/**
 * @file
 * THP lifecycle subsystem: huge pages as a managed lifecycle instead of
 * a fault-time-only decision.
 *
 * The paper's Figure 11 shows the *static* end state of fragmentation:
 * 2 MB allocations fail, workloads silently fall back to 4 KB pages,
 * and remote page-table walks get devastating. Real Linux fights back
 * with two daemons, which this subsystem reproduces:
 *
 *  - **khugepaged**: scans THP-eligible VMAs for fully-populated,
 *    same-socket 512-PTE runs and collapses them into one 2 MB mapping
 *    (a fresh large block, the data copied over, the leaf table
 *    released — in *every* replica, via the PV-Ops collapseRange hook).
 *  - **kcompactd**: reconstitutes allocLargeBlock() capacity when
 *    collapse fails for lack of contiguity, by relocating the few
 *    allocated frames out of nearly-free 2 MB blocks (mapped data
 *    frames move through the data-migration path — PTE rewrite plus
 *    stale-translation shootdown — and fragmentation-injector fillers
 *    move as modelled movable kernel memory).
 *  - a **split path**: partial munmap/mprotect over a 2 MB mapping (and
 *    madvise boundaries) demote it to 512 4 KB PTEs through the PV-Ops
 *    splitHuge hook instead of silently zapping 2 MB of data.
 *
 * Everything is off by default and the split path is gated
 * (ThpConfig::splitPartial), so a kernel built with the default config
 * is charge-identical to one without the subsystem.
 */

#ifndef MITOSIM_OS_THP_THP_H
#define MITOSIM_OS_THP_THP_H

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/types.h"
#include "src/obs/metrics.h"
#include "src/os/process.h"
#include "src/pvops/pvops.h"

namespace mitosim::os
{
class Kernel;
}

namespace mitosim::os::thp
{

/** Construction-time knobs (Kernel::KernelConfig::thp). */
struct ThpConfig
{
    /** Run the background collapse daemon on thpTick(). */
    bool khugepaged = false;

    /** Run the background compaction daemon on thpTick(). */
    bool kcompactd = false;

    /**
     * Demote huge pages that partially overlap a munmap/mprotect range
     * instead of the seed's whole-leaf zap. Gated so the default
     * kernel stays charge-identical; madvise() always splits straddling
     * huge pages (it is new API with no legacy callers).
     */
    bool splitPartial = false;

    /** khugepaged: 2 MB candidate ranges examined per process, per
     *  tick (Linux's pages_to_scan analogue). */
    std::uint64_t scanRangesPerTick = 512;

    /** khugepaged: collapse budget per process, per tick. */
    unsigned collapsesPerTick = 64;

    /**
     * khugepaged: how many of a candidate range's 512 PTEs may be
     * *empty* and still collapse, the holes becoming zero-filled
     * subpages of the huge mapping (Linux's max_ptes_none; 511 is the
     * Linux default — one resident page suffices). 0 restricts
     * collapse to fully-populated runs.
     */
    unsigned maxPtesNone = 511;

    /** kcompactd: source blocks drained per socket, per tick. */
    unsigned compactBlocksPerTick = 64;

    /** kcompactd: only drain blocks with at most this many allocated
     *  frames (cheap wins first; Linux's fragmentation-index role). */
    std::uint32_t compactMaxUsed = 64;
};

/**
 * Lifecycle activity counters. Each also feeds a thp_* counter in the
 * machine's metrics registry (the bench report's "metrics" section).
 */
struct ThpStats
{
    std::uint64_t rangesScanned = 0;     //!< khugepaged 2 MB candidates
    std::uint64_t collapses = 0;         //!< 4K→2M promotions
    std::uint64_t collapseFailedNoBlock = 0; //!< failed 2 MB allocations
    std::uint64_t splits = 0;            //!< 2M→4K demotions
    std::uint64_t compactionBlocksReclaimed = 0; //!< blocks drained free
    std::uint64_t compactionPagesMoved = 0;      //!< frames relocated
    std::uint64_t compactionFailures = 0; //!< unmovable block / no dest
    Cycles daemonCycles = 0; //!< kernel-side work, off the app threads
};

/**
 * The lifecycle manager: owns the daemons' state (scan cursors, stats)
 * and the promote/demote mechanics. One per kernel; ticked explicitly
 * (Kernel::thpTick) or from the execution clock
 * (ExecContext::enableThpTicks), like the AutoNUMA scanner.
 */
class ThpManager
{
  public:
    ThpManager(Kernel &kernel, const ThpConfig &config)
        : k(kernel), cfg(config)
    {
    }

    const ThpConfig &config() const { return cfg; }
    bool enabled() const { return cfg.khugepaged || cfg.kcompactd; }

    /**
     * One daemon period over @p procs: kcompactd first (so collapse
     * finds the blocks it just reconstituted), then khugepaged. Work is
     * charged to ThpStats::daemonCycles — the daemons run on kernel
     * threads, not the app's — but their shootdowns disturb the
     * workload's TLBs organically, as in Linux.
     */
    void tick(const std::vector<Process *> &procs);

    /**
     * Collapse [va2m, va2m + 2 MB) into one huge mapping if eligible:
     * THP-enabled VMA containing the whole range, a same-socket run of
     * present 4 KB PTEs with uniform flags (A/D ignored, NUMA hints
     * disqualify, at most maxPtesNone holes), and a free 2 MB block
     * available on that socket. Copies the resident data, zero-fills
     * the holes, rewrites the leaf level in every replica, frees the
     * old frames, one shootdown per range.
     */
    bool collapseAt(Process &proc, VirtAddr va2m,
                    pvops::KernelCost *cost);

    /**
     * Demote the huge page covering @p va to 512 4 KB PTEs mapping the
     * same frames (the data does not move; the 2 MB block becomes 512
     * individually-freeable frames). False when @p va has no huge leaf
     * or the leaf-table allocation failed.
     */
    bool splitAt(Process &proc, VirtAddr va, pvops::KernelCost *cost);

    /**
     * 2 MB coverage of @p proc's resident memory: 4 KB-units mapped
     * through huge leaves / all resident 4 KB-units (0 when nothing is
     * resident). The recovery metric of ext_thp_aging.
     */
    double coverage(const Process &proc) const;

    const ThpStats &stats() const { return stats_; }
    void resetStats() { stats_ = ThpStats{}; }

    /**
     * kcompactd reverse-map lookups that Debug builds checked against
     * a full tick-start rebuild. Always 0 under NDEBUG, where the
     * check is compiled out.
     */
    std::uint64_t rmapCrossChecks() const { return rmapCrossChecks_; }

    /** Drop per-process daemon state (Kernel::destroyProcess). */
    void
    onProcessDestroyed(ProcId pid)
    {
        scanCursor.erase(pid);
    }

    /**
     * Snapshot restore: adopt counters and scan cursors from @p src.
     * The config is *not* copied — a fork may run with different
     * daemon settings than the donor it was populated by.
     */
    void
    cloneStateFrom(const ThpManager &src)
    {
        stats_ = src.stats_;
        scanCursor = src.scanCursor;
    }

  private:
    /** khugepaged: one scan pass over @p proc from its cursor. */
    void scanProcess(Process &proc, pvops::KernelCost *cost);

    /** kcompactd: one compaction pass over every socket. */
    void compactTick(const std::vector<Process *> &procs,
                     pvops::KernelCost *cost);

    /**
     * Register the metric handles on first use. Lazy because the ctor
     * runs while Kernel is still incomplete here (thp.h is included
     * from kernel.h), so k.machine() is only reachable from the .cc
     * files.
     */
    void ensureObs();

    Kernel &k;
    ThpConfig cfg;
    ThpStats stats_;

    /// @name Observability handles (lazily registered, see ensureObs)
    /// @{
    obs::Counter *mCollapses = nullptr;
    obs::Counter *mSplits = nullptr;
    obs::Counter *mPagesMoved = nullptr;
    obs::Counter *mBlocksReclaimed = nullptr;
    obs::Counter *mRmapBuilds = nullptr;
    obs::Counter *mRmapEntries = nullptr;
    obs::Counter *mCollapseFailedNoBlock = nullptr;
    obs::Counter *mCompactionFailures = nullptr;
    obs::Counter *mRangesScanned = nullptr;
    obs::Counter *mDaemonCycles = nullptr;
    /// @}

    std::uint64_t rmapCrossChecks_ = 0;

    /** khugepaged resume addresses, per pid (Linux's scan cursor). */
    std::map<ProcId, VirtAddr> scanCursor;
};

} // namespace mitosim::os::thp

#endif // MITOSIM_OS_THP_THP_H
