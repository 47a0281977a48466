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
 */

#ifndef MITOSIM_CACHE_SET_ASSOC_CACHE_H
#define MITOSIM_CACHE_SET_ASSOC_CACHE_H

#include <cstdint>
#include <vector>

#include "src/base/logging.h"
#include "src/base/types.h"

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
    SetAssocCache(std::uint64_t capacity_bytes, unsigned ways);

    /**
     * Look up the line containing @p pa; on hit, refresh LRU.
     * @return true on hit.
     */
    bool
    lookup(PhysAddr pa)
    {
        std::uint64_t line = lineAddr(pa);
        std::size_t set = setOf(line);
        // Per-set MRU memo: the line most recently stamped in this set
        // (hit, fill or refresh; cleared by every invalidation path).
        // A repeat probe skips the set scan. Exact by MRU idempotence:
        // the memo line holds the newest stamp in its set — nothing in
        // that set has been stamped since, or the memo would have been
        // replaced — so the re-stamp a real probe would perform cannot
        // change the relative stamp order true-LRU eviction depends
        // on. Per-set (rather than one global last-line) so
        // interleaved streams — a walker's PTE-line reads alternating
        // with data lines, or two data streams — keep their memos
        // alive independently.
        if (line == memoMru_[set])
            return true;
        std::size_t base = set * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == line) {
                lrus[base + w] = ++clock;
                memoMru_[set] = line;
                return true;
            }
        }
        return false;
    }

    /**
     * Probe the set for the line containing @p pa and, on a miss,
     * install it during the same scan (the hierarchy's only fill
     * path). A hit refreshes the line's LRU stamp; a miss fills the
     * first free way, else evicts the least recently used line
     * (earliest way on ties).
     * @return true on hit.
     */
    bool
    probeInsert(PhysAddr pa)
    {
        std::uint64_t line = lineAddr(pa);
        std::size_t set = setOf(line);
        // Same MRU-memo short-circuit as lookup(), same exactness
        // argument — and a memo hit needs no fill, so the insert half
        // is moot.
        if (line == memoMru_[set])
            return true;
        memoMru_[set] = line; // every continuation below stamps this line
        std::size_t base = set * numWays;
        std::size_t victim = base;
        bool free_way = false;
        for (unsigned w = 0; w < numWays; ++w) {
            std::size_t i = base + w;
            if (tags[i] == line) {
                lrus[i] = ++clock;
                return true;
            }
            // Victim choice: first free way wins, else oldest LRU,
            // earliest way on ties. A free way freezes the choice but
            // the match scan must continue — invalidations can leave
            // holes before a still-resident line.
            if (!free_way) {
                if (tags[i] == ~0ull) {
                    victim = i;
                    free_way = true;
                } else if (lrus[victim] > lrus[i]) {
                    victim = i;
                }
            }
        }
        tags[victim] = line;
        lrus[victim] = ++clock;
        return false;
    }

    /** Drop the line containing @p pa if present. */
    void invalidateLine(PhysAddr pa);

    /** Drop every line whose frame is @p pfn (PT page teardown). */
    void invalidateFrame(Pfn pfn);

    /** Drop everything. */
    void flush();

    std::uint64_t capacityBytes() const { return tags.size() * LineSize; }
    unsigned associativity() const { return numWays; }
    std::uint64_t numSets() const { return sets; }

  private:
    std::uint64_t lineAddr(PhysAddr pa) const { return pa >> LineShift; }
    std::size_t setOf(std::uint64_t line) const
    {
        return static_cast<std::size_t>(line & (sets - 1));
    }

    unsigned numWays;
    std::uint64_t sets;
    // Struct of arrays, set-major: a probe scans only the packed tag
    // vector (an 8-way set of tags is exactly one cache line; the old
    // 16-byte {tag, lru} pairs spread it over two) and touches the LRU
    // stamp of at most one way.
    std::vector<std::uint64_t> tags; //!< full line address, ~0 = invalid
    std::vector<std::uint32_t> lrus; //!< higher = more recently used
    std::uint32_t clock = 0;         //!< LRU timestamp source
    /**
     * Per-set lookup memo (see lookup()/probeInsert()): the line most
     * recently stamped in each set. ~0 is "empty" — it doubles as the
     * invalid tag, so no real line can ever equal it.
     */
    std::vector<std::uint64_t> memoMru_;
};

} // namespace mitosim::cache

#endif // MITOSIM_CACHE_SET_ASSOC_CACHE_H
