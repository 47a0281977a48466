/**
 * @file
 * One set-associative array with true-LRU replacement: the storage
 * and the replacement policy under the per-core TLB (src/tlb/tlb.h),
 * the paging-structure cache (src/tlb/paging_structure_cache.h) and
 * the L1D/L3 data caches (set_assoc_cache.h). The wrappers keep only
 * what differs between them: key decoding and, in the TLB and the
 * PWC, guaranteed-miss skips.
 *
 * A slot holds a tag, a one-byte fingerprint of the tag, a qualifier
 * and a payload, stored struct-of-arrays and set-major. A probe first
 * compares the set's head (its most recently used way) by tag and
 * qualifier; past that, it compares the set's fingerprints eight at a
 * time, as one 64-bit word, and checks the tag and then the qualifier
 * only at ways whose fingerprint matches; a miss in a 16-way set
 * usually reads two words and no tag. The qualifier is Nothing for
 * cache lines, the ASID for TLB entries and (CR3, ASID) for
 * paging-structure entries.
 *
 * Replacement. Each set keeps a free-way mask and a circular doubly
 * linked recency list of its valid ways, most recently used at the
 * head (so the tail, the least recently used way, is the head's
 * predecessor). A hit moves its way to the head. An insert updates a
 * slot already holding its (tag, qualifier) anywhere in the set;
 * otherwise it fills the lowest free way; otherwise it evicts the
 * tail. Every step is O(1) past the fingerprint scan. That is exact
 * true LRU, and the set never holds two copies of one key, even when
 * an invalidation left a free way before a resident copy.
 *
 * Head first. A probe whose key sits at its set's head is served
 * without the scan and without a move, and that is exact: the head is
 * the most recently used way, so touching it changes no order, and a
 * head that is free (an empty set's stale head, or a way dropped by
 * invalidate, invalidateIf or flush) holds InvalidTag, which no probe
 * tag equals. The wrappers' guaranteed-miss skips rest on the same
 * order: a probe that must miss changes no slot.
 */

#ifndef MITOSIM_CACHE_LRU_ARRAY_H
#define MITOSIM_CACHE_LRU_ARRAY_H

#include <bit>
#include <cstdint>
#include <cstring>
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
    static_assert(std::endian::native == std::endian::little,
                  "wayOf() reads fingerprints as little-endian words");

  public:
    static constexpr std::uint64_t InvalidTag = ~0ull; //!< free slot
    static constexpr unsigned MaxWays = 64; //!< one free-mask word

    /** @p entries slots of @p ways ways, rounded down to 2^k sets. */
    LruArray(std::uint64_t entries, unsigned ways)
    {
        if (ways == 0 || ways > MaxWays || entries < ways)
            fatal("set-associative array of %llu entries cannot have "
                  "%u ways",
                  static_cast<unsigned long long>(entries), ways);
        sets = std::bit_floor(entries / ways);
        numWays = ways;
        allFree = ways == MaxWays ? ~0ull : (1ull << ways) - 1;
        tags.assign(sets * ways, InvalidTag);
        fingerprints.assign(sets * ways + 8, 0);
        quals.assign(sets * ways, Qual{});
        payloads.assign(sets * ways, Payload{});
        links.resize(sets * ways);
        setStates.assign(sets, SetState{allFree, 0});
    }

    /**
     * Find (@p tag, @p qual) and make it its set's most recently used
     * entry. @return its payload, or nullptr on a miss.
     */
    const Payload *
    lookup(std::uint64_t tag, const Qual &qual)
    {
        std::size_t set = setOf(tag);
        std::size_t base = set * numWays;
        SetState &st = setStates[set];
        unsigned w = wayOf(st, base, tag, qual);
        if (w == numWays)
            return nullptr;
        moveToHead(st, base, w);
        return &payloads[base + w];
    }

    /**
     * Install (@p tag, @p qual) -> @p payload as its set's most
     * recently used entry, by the rule in the file comment.
     * @return true if the key was resident (updated in place).
     */
    bool
    insert(std::uint64_t tag, const Qual &qual, const Payload &payload)
    {
        everInserted_ = true;
        std::size_t set = setOf(tag);
        std::size_t base = set * numWays;
        SetState &st = setStates[set];
        if (unsigned w = wayOf(st, base, tag, qual); w != numWays) {
            payloads[base + w] = payload;
            moveToHead(st, base, w);
            return true;
        }
        unsigned victim;
        if (st.freeWays != 0) {
            victim = static_cast<unsigned>(std::countr_zero(st.freeWays));
            linkAtHead(st, base, victim);
            st.freeWays &= st.freeWays - 1;
        } else {
            // Full set: the tail becomes the head, the rest keep order.
            victim = st.head = links[base + st.head].prev;
        }
        tags[base + victim] = tag;
        fingerprints[base + victim] = fingerprint(tag);
        quals[base + victim] = qual;
        payloads[base + victim] = payload;
        return false;
    }

    /**
     * Drop @p tag under every qualifier. The fingerprint words filter
     * the ways as in wayOf, but every match is checked: one tag can be
     * resident under several qualifiers.
     */
    void
    invalidate(std::uint64_t tag)
    {
        std::size_t set = setOf(tag);
        std::size_t base = set * numWays;
        std::uint64_t pattern = 0x0101010101010101ull * fingerprint(tag);
        for (unsigned w0 = 0; w0 < numWays; w0 += 8) {
            for (std::uint64_t m = zeroBytes(fingerprintWord(base + w0) ^
                                             pattern);
                 m != 0; m &= m - 1) {
                unsigned w = w0 + (std::countr_zero(m) >> 3);
                if (w < numWays && tags[base + w] == tag)
                    drop(setStates[set], base, w);
            }
        }
    }

    /** Drop every slot whose qualifier satisfies @p pred. */
    template <typename Pred>
    void
    invalidateIf(Pred &&pred)
    {
        for (std::size_t set = 0, base = 0; set < sets;
             ++set, base += numWays) {
            for (unsigned w = 0; w < numWays; ++w) {
                if (tags[base + w] != InvalidTag && pred(quals[base + w]))
                    drop(setStates[set], base, w);
            }
        }
    }

    void
    flush()
    {
        tags.assign(tags.size(), InvalidTag);
        setStates.assign(sets, SetState{allFree, 0});
    }

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

  private:
    /** A valid way's neighbours in its set's recency list. */
    struct Link
    {
        std::uint8_t prev; //!< next more recently used (head: the tail)
        std::uint8_t next; //!< next less recently used (tail: the head)
    };

    /** A set's free ways and the head of its list (stale when empty). */
    struct SetState
    {
        std::uint64_t freeWays;
        std::uint8_t head;
    };

    std::size_t setOf(std::uint64_t tag) const
    {
        return static_cast<std::size_t>(tag & (sets - 1));
    }

    /** Eight tag bits, mixed so tags of one set spread over them. */
    static std::uint8_t
    fingerprint(std::uint64_t tag)
    {
        return static_cast<std::uint8_t>((tag * 0x9e3779b97f4a7c15ull) >> 56);
    }

    /** The eight fingerprints from slot @p i on, as one word. */
    std::uint64_t
    fingerprintWord(std::size_t i) const
    {
        std::uint64_t word;
        std::memcpy(&word, &fingerprints[i], sizeof word);
        return word;
    }

    /** The top bit of each byte of the result is set iff that byte of
     *  @p v is 0. */
    static std::uint64_t
    zeroBytes(std::uint64_t v)
    {
        constexpr std::uint64_t Low7 = 0x7f7f7f7f7f7f7f7full;
        return ~(((v & Low7) + Low7) | v | Low7);
    }

    /**
     * Way of set @p st (at @p base) holding (@p tag, @p qual), or
     * numWays. The head is checked first (see the file comment); past
     * it, one word compare filters eight fingerprints, and only ways
     * whose fingerprint matches compare their tag and qualifier.
     */
    unsigned
    wayOf(const SetState &st, std::size_t base, std::uint64_t tag,
          const Qual &qual) const
    {
        if (tags[base + st.head] == tag && quals[base + st.head] == qual)
            return st.head;
        std::uint64_t pattern = 0x0101010101010101ull * fingerprint(tag);
        for (unsigned w0 = 0; w0 < numWays; w0 += 8) {
            std::uint64_t m =
                zeroBytes(fingerprintWord(base + w0) ^ pattern);
            for (; m != 0; m &= m - 1) {
                unsigned w = w0 + (std::countr_zero(m) >> 3);
                if (w < numWays && tags[base + w] == tag &&
                    quals[base + w] == qual)
                    return w;
            }
        }
        return numWays;
    }

    /** Put free way @p w at the head of set @p st. */
    void
    linkAtHead(SetState &st, std::size_t base, unsigned w)
    {
        auto way = static_cast<std::uint8_t>(w);
        if (st.freeWays == allFree) {
            links[base + w] = {way, way}; // the set's only valid way
        } else {
            std::uint8_t head = st.head;
            std::uint8_t tail = links[base + head].prev;
            links[base + w] = {tail, head};
            links[base + tail].next = way;
            links[base + head].prev = way;
        }
        st.head = way;
    }

    /** Make valid way @p w the head of set @p st. */
    void
    moveToHead(SetState &st, std::size_t base, unsigned w)
    {
        std::uint8_t head = st.head;
        if (w == head)
            return;
        auto way = static_cast<std::uint8_t>(w);
        std::uint8_t tail = links[base + head].prev;
        if (way != tail) {
            Link l = links[base + w];
            links[base + l.prev].next = l.next;
            links[base + l.next].prev = l.prev;
            links[base + w] = {tail, head};
            links[base + tail].next = way;
            links[base + head].prev = way;
        }
        // The tail already sits in front of the head: rotate.
        st.head = way;
    }

    /** Unlink valid way @p w of set @p st and free it. */
    void
    drop(SetState &st, std::size_t base, unsigned w)
    {
        Link l = links[base + w];
        links[base + l.prev].next = l.next;
        links[base + l.next].prev = l.prev;
        if (st.head == w)
            st.head = l.next;
        st.freeWays |= 1ull << w;
        tags[base + w] = InvalidTag;
    }

    // A probe's scalars and the columns every array uses lead, so a
    // probe touches few host cache lines.
    std::uint64_t sets;
    unsigned numWays;
    bool everInserted_ = false;
    std::uint64_t allFree; //!< free mask of an empty set
    std::vector<std::uint64_t> tags;
    std::vector<std::uint8_t> fingerprints; //!< per slot, + 8 spare bytes
    std::vector<SetState> setStates;
    std::vector<Link> links; //!< per slot; garbage while the way is free
    [[no_unique_address]] Column<Qual> quals;
    [[no_unique_address]] Column<Payload> payloads;
};

} // namespace mitosim::cache

#endif // MITOSIM_CACHE_LRU_ARRAY_H
