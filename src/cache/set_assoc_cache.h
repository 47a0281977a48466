/**
 * @file
 * Set-associative LRU cache model over physical cache-line addresses.
 *
 * Used for the per-socket shared L3 (35 MB on the paper's machine, scaled
 * in MitoSim's default config) and for the small per-core L1D that absorbs
 * spatial locality in streaming workloads. The model tracks presence only;
 * data values are never stored (data frames are unbacked), and it keeps
 * no counters: sim::MemoryHierarchy charges each L1D/L3 hit and DRAM
 * reference to PerfCounters from the probe results.
 *
 * Storage and true-LRU replacement are the shared LruArray (one line
 * address per slot, no qualifier or payload); this class adds line
 * addressing and a per-set MRU memo.
 */

#ifndef MITOSIM_CACHE_SET_ASSOC_CACHE_H
#define MITOSIM_CACHE_SET_ASSOC_CACHE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/types.h"
#include "src/cache/lru_array.h"

namespace mitosim::cache
{

/**
 * Presence-tracking set-associative cache with true-LRU replacement.
 * Addresses are physical; the tag granule is one 64-byte line.
 */
class SetAssocCache
{
  public:
    /**
     * @param capacity_bytes total capacity (power-of-two line count)
     * @param ways associativity
     */
    SetAssocCache(std::uint64_t capacity_bytes, unsigned ways)
        : lines(capacity_bytes / LineSize, ways),
          memoMru_(lines.numSets(), Lines::InvalidTag)
    {
    }

    /**
     * Look up the line containing @p pa; on hit, refresh LRU.
     * @return true on hit.
     */
    bool
    lookup(PhysAddr pa)
    {
        std::uint64_t line = pa >> LineShift;
        // Per-set MRU memo: the line most recently used in this set
        // (hit, fill or refresh; cleared by every invalidation path),
        // so the head of the set's recency list. A repeat probe skips
        // the set scan and the touch, which could not change the set's
        // LRU order (see lru_array.h). Per set, so interleaved streams
        // — a walker's PTE-line reads alternating with data lines —
        // keep their memos apart.
        std::uint64_t &memo = memoMru_[lines.setOf(line)];
        if (line == memo)
            return true;
        if (!lines.lookup(line, {}))
            return false;
        memo = line;
        return true;
    }

    /**
     * Probe for the line containing @p pa and, on a miss, install it
     * (the hierarchy's only fill path). A hit makes the line its set's
     * most recently used; a miss fills a free way or evicts the LRU
     * line.
     * @return true on hit.
     */
    bool
    probeInsert(PhysAddr pa)
    {
        std::uint64_t line = pa >> LineShift;
        std::uint64_t &memo = memoMru_[lines.setOf(line)];
        if (line == memo)
            return true;
        memo = line;
        return lines.insert(line, {}, {});
    }

    /** Drop the line containing @p pa if present. */
    void
    invalidateLine(PhysAddr pa)
    {
        std::uint64_t line = pa >> LineShift;
        std::uint64_t &memo = memoMru_[lines.setOf(line)];
        if (memo == line)
            memo = Lines::InvalidTag;
        lines.invalidate(line);
    }

    /** Drop everything. */
    void
    flush()
    {
        lines.flush();
        std::fill(memoMru_.begin(), memoMru_.end(), Lines::InvalidTag);
    }

    std::uint64_t capacityBytes() const { return lines.slots() * LineSize; }
    unsigned associativity() const { return lines.ways(); }
    std::uint64_t numSets() const { return lines.numSets(); }

  private:
    using Lines = LruArray<Nothing, Nothing>;

    Lines lines; //!< tag = full line address
    /**
     * Per-set lookup memo: the line most recently used in each set.
     * InvalidTag is "empty"; no real line address equals it.
     */
    std::vector<std::uint64_t> memoMru_;
};

} // namespace mitosim::cache

#endif // MITOSIM_CACHE_SET_ASSOC_CACHE_H
