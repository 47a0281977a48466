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
 * Each array is a shared LruArray qualified by ASID, which serves a
 * repeat probe of its set's most recently used entry without a scan;
 * this class adds the size classes and the guaranteed-miss skips.
 * The TLB keeps no counters of its own: lookup() reports the hit level
 * and latency, and sim::Core charges them to PerfCounters, the one
 * hardware-event channel every report reads.
 */

#ifndef MITOSIM_TLB_TLB_H
#define MITOSIM_TLB_TLB_H

#include <cstdint>
#include <functional>

#include "src/base/logging.h"
#include "src/base/types.h"
#include "src/cache/lru_array.h"

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
     * ratio of the paper's machine (see EXPERIMENTS.md "Scaling: 128
     * MiB footprints against a 64 KiB per-socket L3").
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
    explicit TwoLevelTlb(const TlbConfig &config = TlbConfig{})
        : cfg(config),
          l1Small(cfg.l1Entries4K, cfg.l1Ways),
          l1Large(cfg.l1Entries2M, cfg.l1Ways),
          l2(cfg.l2Entries, cfg.l2Ways)
    {
    }

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
        // Guaranteed misses change no state, so their probes are
        // skipped: every entry ever installed carries one other ASID,
        // or a size class was never installed (the sticky
        // everInserted() of its L1 array, which every insert of that
        // size fills).
        if (asid_ != onlyAsid_ && !multiAsid_ && anyInsert_)
            [[unlikely]] return miss();

        // L1, both size classes probed in parallel on real hardware.
        const TlbEntry *e;
        if (l1Small.everInserted() &&
            (e = l1Small.lookup(tag4K(va), asid_)))
            return hit(*e, 1);
        if (l1Large.everInserted() &&
            (e = l1Large.lookup(tag2M(va), asid_)))
            return hit(*e, 1);

        // Unified L2: try the 4 KB-granule tag, then the 2 MB-granule
        // tag; a hit promotes into its L1 size class.
        if (l1Small.everInserted() && (e = l2.lookup(tag4K(va), asid_))) {
            TlbLookupResult res = hit(*e, 2);
            l1Small.insert(tag4K(va), asid_, res.entry);
            return res;
        }
        if (cfg.l2Holds2M && l1Large.everInserted() &&
            (e = l2.lookup(tag2M(va) | LargeTagBit, asid_))) {
            TlbLookupResult res = hit(*e, 2);
            l1Large.insert(tag2M(va), asid_, res.entry);
            return res;
        }
        return miss();
    }

    /**
     * lookup() of @p va where the caller knows it misses: no
     * translation has been installed since @p va last missed or was
     * invalidated (the retry after a serviced fault; the fault handler
     * installs none). A probe that misses moves no slot (see
     * lru_array.h), so charging the miss latency without probing is
     * exact, as for the guaranteed-miss skips inside lookup(). Debug
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
            l1Small.insert(tag4K(va), asid_, entry);
            l2.insert(tag4K(va), asid_, entry);
        } else {
            l1Large.insert(tag2M(va), asid_, entry);
            if (cfg.l2Holds2M)
                l2.insert(tag2M(va) | LargeTagBit, asid_, entry);
        }
    }

    /**
     * Invalidate any entry covering @p va in *every* address space
     * (both levels) — the shootdown path is a broadcast, conservative
     * across ASIDs like a kernel INVPCID type-0 loop.
     */
    void
    invalidatePage(VirtAddr va)
    {
        l1Small.invalidate(tag4K(va));
        l1Large.invalidate(tag2M(va));
        l2.invalidate(tag4K(va));
        l2.invalidate(tag2M(va) | LargeTagBit);
    }

    /** Full flush, e.g. on CR3 load without PCID. */
    void
    flushAll()
    {
        for (Array *a : {&l1Small, &l1Large, &l2})
            a->flush();
    }

    /** Selective flush of every entry tagged @p asid (INVPCID type 1). */
    void
    flushAsid(Asid asid)
    {
        for (Array *a : {&l1Small, &l1Large, &l2})
            a->invalidateIf([&](Asid tagged) { return tagged == asid; });
    }

    const TlbConfig &config() const { return cfg; }

    /**
     * Visit every valid entry across both levels as (va, asid, entry).
     * A translation resident in L1 and L2 is visited once per copy.
     * Diagnostic/validation hook (vmcheck); not part of the timed path.
     */
    void
    forEachEntry(
        const std::function<void(VirtAddr, Asid, const TlbEntry &)> &fn)
        const
    {
        // The VA is recoverable from the tag: 2 MB entries tag at 2 MB
        // granularity (with LargeTagBit mixed in for the unified L2).
        auto visit = [&](std::uint64_t tag, Asid asid,
                         const TlbEntry &entry) {
            fn(entry.size == PageSizeKind::Large2M
                   ? ((tag & ~LargeTagBit) << LargePageShift)
                   : (tag << PageShift),
               asid, entry);
        };
        for (const Array *a : {&l1Small, &l1Large, &l2})
            a->forEach(visit);
    }

  private:
    using Array = cache::LruArray<Asid, TlbEntry>;

    static std::uint64_t tag4K(VirtAddr va) { return va >> PageShift; }
    static std::uint64_t tag2M(VirtAddr va) { return va >> LargePageShift; }

    /** The hit at @p level on @p entry (already made MRU). */
    TlbLookupResult
    hit(const TlbEntry &entry, int level) const
    {
        return {true, level,
                level == 1 ? cfg.l1HitLatency : cfg.l2HitLatency, entry};
    }

    /** A miss pays the full probe. */
    TlbLookupResult miss() const { return {false, 0, cfg.l2HitLatency, {}}; }

    /** Granularity marker mixed into unified-L2 tags (no collisions). */
    static constexpr std::uint64_t LargeTagBit = 1ull << 63;

    TlbConfig cfg;
    Array l1Small;
    Array l1Large;
    Array l2;     //!< unified; tags are 4K-granule with size in entry
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
};

} // namespace mitosim::tlb

#endif // MITOSIM_TLB_TLB_H
