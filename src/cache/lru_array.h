/**
 * @file
 * One set-associative array with true-LRU replacement: the storage
 * and the replacement policy under the per-core TLB (src/tlb/tlb.h),
 * the paging-structure cache (src/tlb/paging_structure_cache.h) and
 * the L1D/L3 data caches (set_assoc_cache.h). The wrappers keep only
 * what differs between them: key decoding, clocks and lookup memos.
 *
 * A slot holds a tag, a qualifier, a payload and an LRU stamp, stored
 * struct-of-arrays and set-major. Lookups scan the packed tag vector
 * (an 8-way set of tags is one host cache line) and compare the
 * qualifier only once a tag has matched: Nothing for cache lines, the
 * ASID for TLB entries, (CR3, ASID) for paging-structure entries.
 *
 * Replacement. Stamps come from the caller (each wrapper keeps its own
 * clock, so stamps are unique and increase within an array). An insert
 * updates a slot already holding its (tag, qualifier) anywhere in the
 * set; otherwise it fills the first free way; otherwise it evicts the
 * lowest-stamped way, the earliest way on ties. That is exact true
 * LRU: the lowest stamp is the least recently touched entry, and the
 * set never holds two copies of one key, even when an invalidation
 * left a free way before a resident copy. The wrappers' MRU memos and
 * guaranteed-miss skips rely on the same order: a re-stamp of the
 * entry that already holds the set's newest stamp cannot change which
 * way any later insert picks, and a probe that must miss changes no
 * slot.
 */

#ifndef MITOSIM_CACHE_LRU_ARRAY_H
#define MITOSIM_CACHE_LRU_ARRAY_H

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/base/logging.h"

namespace mitosim::cache
{

/** Qualifier or payload of an array that needs none. */
struct Nothing
{
    bool operator==(const Nothing &) const = default;
};

/** The per-slot column of an empty type: no storage at all. */
template <typename T>
struct NoColumn
{
    [[no_unique_address]] T value;
    void assign(std::size_t, const T &) {}
    T &operator[](std::size_t) { return value; }
    const T &operator[](std::size_t) const { return value; }
};

template <typename T>
using Column =
    std::conditional_t<std::is_empty_v<T>, NoColumn<T>, std::vector<T>>;

template <typename Qual, typename Payload>
class LruArray
{
  public:
    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr std::uint64_t InvalidTag = ~0ull; //!< free slot

    /** @p entries slots of @p ways ways, rounded down to 2^k sets. */
    LruArray(std::uint64_t entries, unsigned ways)
    {
        if (ways == 0 || entries < ways)
            fatal("set-associative array of %llu entries cannot have "
                  "%u ways",
                  static_cast<unsigned long long>(entries), ways);
        sets = std::bit_floor(entries / ways);
        numWays = ways;
        tags.assign(sets * ways, InvalidTag);
        quals.assign(sets * ways, Qual{});
        payloads.assign(sets * ways, Payload{});
        lrus.assign(sets * ways, 0);
    }

    std::size_t setOf(std::uint64_t tag) const
    {
        return static_cast<std::size_t>(tag & (sets - 1));
    }

    /** Slot holding (@p tag, @p qual), or npos. */
    std::size_t
    find(std::uint64_t tag, const Qual &qual) const
    {
        std::size_t base = setOf(tag) * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == tag && quals[base + w] == qual)
                return base + w;
        }
        return npos;
    }

    void touch(std::size_t slot, std::uint32_t now) { lrus[slot] = now; }
    const Payload &payload(std::size_t slot) const { return payloads[slot]; }

    /**
     * Install (@p tag, @p qual) -> @p payload stamped @p now, by the
     * rule in the file comment.
     * @return true if the key was resident (updated in place).
     */
    bool
    insert(std::uint64_t tag, const Qual &qual, const Payload &payload,
           std::uint32_t now)
    {
        everInserted_ = true;
        std::size_t base = setOf(tag) * numWays;
        std::size_t victim = base;
        std::size_t free_slot = npos;
        for (unsigned w = 0; w < numWays; ++w) {
            std::size_t i = base + w;
            if (tags[i] == tag && quals[i] == qual) {
                payloads[i] = payload;
                lrus[i] = now;
                return true;
            }
            if (tags[i] == InvalidTag) {
                if (free_slot == npos)
                    free_slot = i;
            } else if (lrus[i] < lrus[victim]) {
                victim = i;
            }
        }
        if (free_slot != npos)
            victim = free_slot;
        tags[victim] = tag;
        quals[victim] = qual;
        payloads[victim] = payload;
        lrus[victim] = now;
        return false;
    }

    /** Drop @p tag under every qualifier. */
    void
    invalidate(std::uint64_t tag)
    {
        std::size_t base = setOf(tag) * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == tag)
                tags[base + w] = InvalidTag;
        }
    }

    /** Drop every slot whose qualifier satisfies @p pred. */
    template <typename Pred>
    void
    invalidateIf(Pred &&pred)
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (pred(quals[i]))
                tags[i] = InvalidTag;
        }
    }

    void flush() { tags.assign(tags.size(), InvalidTag); }

    /**
     * Sticky "insert() has ever run" (flushes do not clear it): while
     * false every slot is free, so a wrapper may skip the probe.
     */
    bool everInserted() const { return everInserted_; }

    /** Visit every valid slot as (tag, qual, payload). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] != InvalidTag)
                fn(tags[i], quals[i], payloads[i]);
        }
    }

    std::uint64_t numSets() const { return sets; }
    unsigned ways() const { return numWays; }
    std::size_t slots() const { return tags.size(); }

  private:
    // A probe's scalars and the columns every array uses lead, so a
    // probe touches few host cache lines.
    std::uint64_t sets;
    unsigned numWays;
    bool everInserted_ = false;
    std::vector<std::uint64_t> tags;
    std::vector<std::uint32_t> lrus; //!< higher = more recently used
    [[no_unique_address]] Column<Qual> quals;
    [[no_unique_address]] Column<Payload> payloads;
};

} // namespace mitosim::cache

#endif // MITOSIM_CACHE_LRU_ARRAY_H
