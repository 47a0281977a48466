/**
 * @file
 * Per-core two-level TLB, modelled after the paper's platform (§8:
 * "a per-core two-level TLB with 64+1024 entries").
 *
 * L1 is split by page size (64 entries for 4 KB, 32 for 2 MB, like
 * Haswell's DTLB); L2 is a unified 1024-entry STLB. Entries are tagged
 * with the translation's page size so a 2 MB entry covers its whole
 * range. Replacement is true LRU within a set.
 *
 * Every entry additionally carries the ASID (x86 PCID) it was installed
 * under: lookups only hit entries of the current address space (set via
 * setAsid, the PCID field of a CR3 write), so a core time-sharing
 * several processes keeps their translations apart without flushing.
 * flushAsid() is the selective INVPCID path the scheduler uses when an
 * ASID is recycled. A single-ASID user (the pinned default: one process
 * per core, full flush on every CR3 load) behaves exactly as before.
 *
 * The TLB keeps no counters of its own: lookup() reports the hit level
 * and latency, and sim::Core charges them to PerfCounters, the one
 * hardware-event channel every report reads.
 */

#ifndef MITOSIM_TLB_TLB_H
#define MITOSIM_TLB_TLB_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/base/logging.h"
#include "src/base/types.h"

namespace mitosim::tlb
{

/** Sizing knobs; defaults match the paper's machine. */
struct TlbConfig
{
    unsigned l1Entries4K = 64;
    unsigned l1Entries2M = 32;
    unsigned l1Ways = 4;
    unsigned l2Entries = 1024;
    unsigned l2Ways = 8;
    Cycles l1HitLatency = 1;  //!< folded into the load latency
    Cycles l2HitLatency = 7;  //!< STLB probe cost

    /**
     * Whether the unified L2 caches 2 MB translations. Haswell does
     * (default); Sandy-Bridge-class STLBs are 4 KB-only. Scaled-down
     * simulations disable this to keep the large-page-count : TLB-reach
     * ratio of the paper's machine (see DESIGN.md).
     */
    bool l2Holds2M = true;
};

/** One cached translation. */
struct TlbEntry
{
    Pfn pfn = InvalidPfn;          //!< 4 KB frame or 2 MB head frame
    bool writable = false;
    PageSizeKind size = PageSizeKind::Base4K;
};

/** Outcome of a lookup. */
struct TlbLookupResult
{
    bool hit = false;
    int hitLevel = 0; //!< 1 or 2 on hit, 0 on miss
    Cycles latency = 0;
    TlbEntry entry;
};

/** A two-level data TLB for one core. */
class TwoLevelTlb
{
  public:
    explicit TwoLevelTlb(const TlbConfig &config = TlbConfig{});

    /**
     * Set the current address space (the PCID field of a CR3 write).
     * Subsequent lookups hit only entries installed under this ASID;
     * inserts tag new entries with it.
     */
    void setAsid(Asid asid) { asid_ = asid; }
    Asid asid() const { return asid_; }

    /**
     * Probe for the translation of @p va under the current ASID. L1 by
     * size class, then L2. A hit in L2 promotes into L1.
     */
    TlbLookupResult
    lookup(VirtAddr va)
    {
        TlbLookupResult res;

        // MRU memo: a decoded copy of the most recently stamped L1
        // entry (set by every L1 hit, promote and insert; cleared by
        // every invalidation path). A repeat probe of the same page
        // under the same ASID short-circuits the whole set scan.
        // Exact, not approximate: the memo entry carries the newest
        // LRU stamp in its L1 set (nothing else in that set has been
        // stamped since, or the memo would have been replaced), so the
        // re-stamp a real probe would perform cannot change the
        // relative stamp order true-LRU victim choice depends on —
        // and the result returned here is exactly the real L1-hit
        // path's. Skipping the ++clock tick is
        // equally invisible: stamps stay unique and ordered.
        if ((va & memoMask_) == memoBase_ && asid_ == memoAsid_) {
            res.hit = true;
            res.hitLevel = 1;
            res.latency = cfg.l1HitLatency;
            res.entry = memoEntry_;
            return res;
        }

        // Early-out ASID guard (same licence as sawLarge_ below): if
        // every entry ever installed carries one single ASID and the
        // probing ASID differs, no array can hold a match — take the
        // miss directly without scanning. A guaranteed-miss probe
        // changes no state, so skipping it is invisible to the
        // simulation.
        if (asid_ != onlyAsid_ && !multiAsid_ && anyInsert_)
            [[unlikely]] {
            res.hit = false;
            res.latency = cfg.l2HitLatency;
            return res;
        }

        // L1, both size classes probed in parallel on real hardware.
        // Each size class's probes are skipped until a translation of
        // that size has ever been installed (saw4K_ / sawLarge_): a
        // guaranteed-miss probe changes no state, and
        // all-2M (or all-4K) address spaces otherwise pay for both
        // size classes on every single lookup.
        if (saw4K_) {
            if (std::size_t s = l1Small.find(tag4K(va), asid_);
                s != Array::npos) {
                l1Small.touch(s, ++clock);
                res.hit = true;
                res.hitLevel = 1;
                res.latency = cfg.l1HitLatency;
                res.entry = l1Small.entryAt(s);
                noteMru(va, res.entry);
                return res;
            }
        }
        if (sawLarge_) {
            if (std::size_t s = l1Large.find(tag2M(va), asid_);
                s != Array::npos) {
                l1Large.touch(s, ++clock);
                res.hit = true;
                res.hitLevel = 1;
                res.latency = cfg.l1HitLatency;
                res.entry = l1Large.entryAt(s);
                noteMru(va, res.entry);
                return res;
            }
        }

        // Unified L2: try the 4 KB-granule tag, then the 2 MB-granule tag.
        if (saw4K_) {
            if (std::size_t s = l2.find(tag4K(va), asid_);
                s != Array::npos) {
                l2.touch(s, ++clock);
                res.hit = true;
                res.hitLevel = 2;
                res.latency = cfg.l2HitLatency;
                res.entry = l2.entryAt(s);
                l1Small.insert(tag4K(va), asid_, res.entry, ++clock);
                noteMru(va, res.entry);
                return res;
            }
        }
        if (cfg.l2Holds2M && sawLarge_) {
            if (std::size_t s = l2.find(tag2M(va) | LargeTagBit, asid_);
                s != Array::npos) {
                l2.touch(s, ++clock);
                res.hit = true;
                res.hitLevel = 2;
                res.latency = cfg.l2HitLatency;
                res.entry = l2.entryAt(s);
                l1Large.insert(tag2M(va), asid_, res.entry, ++clock);
                noteMru(va, res.entry);
                return res;
            }
        }

        res.hit = false;
        res.latency = cfg.l2HitLatency; // paid the full probe before missing
        return res;
    }

    /**
     * lookup() of @p va where the caller knows it misses: nothing has
     * been inserted since @p va last missed or was invalidated (the
     * retry after a serviced fault). A miss changes no state, so
     * returning its latency directly is exact; the same
     * licence as the guaranteed-miss skips inside lookup(). Debug
     * builds run the real probe and assert that it missed.
     */
    Cycles
    lookupKnownMiss(VirtAddr va)
    {
#ifndef NDEBUG
        TlbLookupResult res = lookup(va);
        MITOSIM_ASSERT(!res.hit, "known-miss TLB lookup hit");
        return res.latency;
#else
        (void)va;
        return cfg.l2HitLatency;
#endif
    }

    /** Install a translation after a walk (fills L1 and L2). */
    void
    insert(VirtAddr va, const TlbEntry &entry)
    {
        if (!anyInsert_) {
            onlyAsid_ = asid_;
            anyInsert_ = true;
        } else if (asid_ != onlyAsid_) {
            multiAsid_ = true;
        }
        if (entry.size == PageSizeKind::Base4K) {
            saw4K_ = true;
            l1Small.insert(tag4K(va), asid_, entry, ++clock);
            l2.insert(tag4K(va), asid_, entry, ++clock);
        } else {
            sawLarge_ = true;
            l1Large.insert(tag2M(va), asid_, entry, ++clock);
            if (cfg.l2Holds2M)
                l2.insert(tag2M(va) | LargeTagBit, asid_, entry, ++clock);
        }
        noteMru(va, entry);
    }

    /**
     * Invalidate any entry covering @p va in *every* address space
     * (both levels) — the shootdown path is a broadcast, conservative
     * across ASIDs like a kernel INVPCID type-0 loop.
     */
    void invalidatePage(VirtAddr va);

    /** Full flush, e.g. on CR3 load without PCID. */
    void flushAll();

    /** Selective flush of every entry tagged @p asid (INVPCID type 1). */
    void flushAsid(Asid asid);

    const TlbConfig &config() const { return cfg; }

    /**
     * Visit every valid entry across both levels as (va, asid, entry).
     * A translation resident in L1 and L2 is visited once per copy.
     * Diagnostic/validation hook (vmcheck); not part of the timed path.
     */
    void forEachEntry(
        const std::function<void(VirtAddr, Asid, const TlbEntry &)> &fn)
        const;

  private:
    /**
     * One set-associative array, stored struct-of-arrays: the packed
     * tag vector is the only thing a find touches until it hits (the
     * ASID vector is read per way only after its tag matched, which is
     * rare outside the hit way), so a whole set's tags land in one or
     * two cache lines instead of one per slot. Victim selection in
     * insert is decision-identical to the old slot scan: matching or
     * first-free way wins immediately, else the earliest way with the
     * lowest LRU stamp.
     */
    class Array
    {
      public:
        Array(unsigned entries, unsigned ways);

        static constexpr std::size_t npos = ~std::size_t{0};
        static constexpr std::uint64_t InvalidTag = ~0ull;

        std::size_t
        find(std::uint64_t tag, Asid asid) const
        {
            std::size_t base =
                static_cast<std::size_t>(tag & (sets - 1)) * numWays;
            for (unsigned w = 0; w < numWays; ++w) {
                if (tags[base + w] == tag && asids[base + w] == asid)
                    return base + w;
            }
            return npos;
        }

        void touch(std::size_t slot, std::uint32_t now)
        {
            lrus[slot] = now;
        }

        const TlbEntry &entryAt(std::size_t slot) const
        {
            return entries[slot];
        }

        void
        insert(std::uint64_t tag, Asid asid, const TlbEntry &entry,
               std::uint32_t now)
        {
            std::size_t base =
                static_cast<std::size_t>(tag & (sets - 1)) * numWays;
            std::size_t victim = base;
            for (unsigned w = 0; w < numWays; ++w) {
                std::size_t i = base + w;
                if ((tags[i] == tag && asids[i] == asid) ||
                    tags[i] == InvalidTag) {
                    victim = i;
                    break;
                }
                if (lrus[victim] > lrus[i])
                    victim = i;
            }
            tags[victim] = tag;
            asids[victim] = asid;
            entries[victim] = entry;
            lrus[victim] = now;
        }

        void invalidate(std::uint64_t tag); //!< all ASIDs holding tag
        void flush();
        void flushAsid(Asid asid);

        /** Visit every valid slot as (tag, asid, entry). */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (std::size_t i = 0; i < tags.size(); ++i) {
                if (tags[i] != InvalidTag)
                    fn(tags[i], asids[i], entries[i]);
            }
        }

      private:
        unsigned numWays;
        std::uint64_t sets;
        std::vector<std::uint64_t> tags;  //!< InvalidTag = empty slot
        std::vector<Asid> asids;
        std::vector<TlbEntry> entries;
        std::vector<std::uint32_t> lrus;
    };

    static std::uint64_t tag4K(VirtAddr va) { return va >> PageShift; }
    static std::uint64_t tag2M(VirtAddr va) { return va >> LargePageShift; }

    /**
     * Remember @p entry (just stamped in its L1 array, so the newest
     * stamp in its set) as the lookup memo. The base/mask pair makes
     * the memo hit test one AND+compare regardless of page size.
     */
    void
    noteMru(VirtAddr va, const TlbEntry &entry)
    {
        memoMask_ = (entry.size == PageSizeKind::Large2M)
                        ? ~(LargePageSize - 1)
                        : ~(PageSize - 1);
        memoBase_ = va & memoMask_;
        memoAsid_ = asid_;
        memoEntry_ = entry;
    }

    /** Drop the memo (any invalidation: mask 0 can never match ~0). */
    void
    clearMemo()
    {
        memoBase_ = ~0ull;
        memoMask_ = 0;
    }

    /** Granularity marker mixed into unified-L2 tags (no collisions). */
    static constexpr std::uint64_t LargeTagBit = 1ull << 63;

    TlbConfig cfg;
    Array l1Small;
    Array l1Large;
    Array l2;     //!< unified; tags are 4K-granule with size in entry
    /**
     * Whether any 2 MB / any 4 KB translation was ever installed.
     * Sticky (never cleared by flushes): false only guarantees the
     * size class's arrays are empty, which licenses skipping their
     * probes — a pure host-side shortcut with no effect on simulated
     * state.
     */
    bool sawLarge_ = false;
    bool saw4K_ = false;
    /**
     * Sticky single-ASID tracking for the lookup early-out: onlyAsid_
     * is the ASID of the first insert ever, multiAsid_ goes true (and
     * stays true) once a second distinct ASID is installed. While
     * multiAsid_ is false, a probe under any other ASID is a
     * guaranteed miss. The pinned default (one process per core) never
     * sets multiAsid_.
     */
    Asid onlyAsid_ = 0;
    bool anyInsert_ = false;
    bool multiAsid_ = false;
    Asid asid_ = 0;
    std::uint32_t clock = 0;
    // Lookup memo (see lookup()/noteMru): decoded copy of the most
    // recently stamped L1 entry. memoBase_ = ~0 with memoMask_ = 0 is
    // the "empty" state — no canonical address matches it.
    std::uint64_t memoBase_ = ~0ull;
    std::uint64_t memoMask_ = 0;
    Asid memoAsid_ = 0;
    TlbEntry memoEntry_;
};

} // namespace mitosim::tlb

#endif // MITOSIM_TLB_TLB_H
