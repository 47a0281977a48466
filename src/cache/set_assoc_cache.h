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
 * address per slot, no qualifier or payload), which serves a repeat
 * probe of a set's most recently used line without a scan, so
 * interleaved streams (a walker's PTE-line reads alternating with data
 * lines) that use different sets each keep their fast path; this class
 * adds line addressing.
 */

#ifndef MITOSIM_CACHE_SET_ASSOC_CACHE_H
#define MITOSIM_CACHE_SET_ASSOC_CACHE_H

#include <cstdint>

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
        : lines(capacity_bytes / LineSize, ways)
    {
    }

    /**
     * Look up the line containing @p pa; on hit, refresh LRU.
     * @return true on hit.
     */
    bool
    lookup(PhysAddr pa)
    {
        return lines.lookup(pa >> LineShift, {}) != nullptr;
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
        return lines.insert(pa >> LineShift, {}, {});
    }

    /** Drop everything. */
    void
    flush()
    {
        lines.flush();
    }

    unsigned associativity() const { return lines.ways(); }
    std::uint64_t numSets() const { return lines.numSets(); }

  private:
    using Lines = LruArray<Nothing, Nothing>;

    Lines lines; //!< tag = full line address
};

} // namespace mitosim::cache

#endif // MITOSIM_CACHE_SET_ASSOC_CACHE_H
