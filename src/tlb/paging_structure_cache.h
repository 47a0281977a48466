/**
 * @file
 * Paging-structure caches (MMU caches), per core.
 *
 * x86 walkers cache upper-level entries (PML4E/PDPTE/PDE) so that a walk
 * can skip levels [Barr et al., ISCA'10; Bhattacharjee, MICRO'13 — paper
 * refs 19/24]. The paper's §3.1 notes "even though MMU caches help reduce
 * some of the accesses, at least leaf-level PTEs have to be accessed" —
 * modelling these caches is essential or the simulator would overstate
 * upper-level walk traffic.
 *
 * Entries are tagged by (root pfn, ASID, va prefix), so switching CR3
 * (e.g. to a socket-local replica) naturally misses, and replicas are
 * cached independently per core, as on real hardware. The ASID tag (set
 * via setAsid on context switch, like the PCID field of CR3) exists for
 * *selective invalidation*: flushAsid() removes one dead or recycled
 * address space's entries without nuking the other tenants sharing the
 * core — essential once root-page frames can be freed and reused, since
 * a recycled root pfn would otherwise hit another process's stale
 * upper-level entries.
 *
 * Each level is a fully-associative LruArray (one set) qualified by
 * (root pfn, ASID), which serves a repeat probe of its most recently
 * used entry without a scan (sequential walk streams, as in populate
 * or a range sweep, hit one 2 MB prefix for 512 walks in a row); this
 * class adds the level decoding.
 *
 * The cache keeps no counters of its own: lookup() returns where the
 * walk starts, and the walker charges the table reads it then issues
 * to PerfCounters.
 */

#ifndef MITOSIM_TLB_PAGING_STRUCTURE_CACHE_H
#define MITOSIM_TLB_PAGING_STRUCTURE_CACHE_H

#include <cstdint>
#include <functional>

#include "src/base/logging.h"
#include "src/base/types.h"
#include "src/cache/lru_array.h"

namespace mitosim::tlb
{

/** Per-level capacity; defaults are Haswell-like. */
struct PwcConfig
{
    unsigned pml4eEntries = 2;  //!< caches L4 entries (skip to L3)
    unsigned pdpteEntries = 4;  //!< caches L3 entries (skip to L2)
    unsigned pdeEntries = 32;   //!< caches L2 entries (skip to L1)
};

/**
 * The three upper-level caches. Lookup returns the deepest cached level
 * so the walker can start there.
 */
class PagingStructureCache
{
  public:
    explicit PagingStructureCache(const PwcConfig &config = PwcConfig{})
        : levels{Level(config.pdeEntries, config.pdeEntries),
                 Level(config.pdpteEntries, config.pdpteEntries),
                 Level(config.pml4eEntries, config.pml4eEntries)}
    {
    }

    /** Result of a probe: where to start the walk. */
    struct Probe
    {
        /**
         * Level of the *next table to read*: 1 means only the leaf PTE
         * remains (PDE cached), 4 means start from the root.
         */
        int startLevel = 4;
        /** pfn of the table to read at startLevel (root if 4). */
        Pfn tablePfn = InvalidPfn;
    };

    /** Current address space for lookups/fills (PCID field of CR3). */
    void setAsid(Asid asid) { asid_ = asid; }
    Asid asid() const { return asid_; }

    /** Find the deepest cached prefix for @p va under root @p cr3. */
    Probe
    lookup(Pfn cr3, VirtAddr va)
    {
        // Deepest level first. A level never filled is skipped: a
        // 2 MB-mapped address space never fills the pde level.
        for (int level = 1; level <= 3; ++level) {
            Level &l = levels[level - 1];
            if (!l.everInserted())
                continue;
            const Pfn *table = l.lookup(va >> tagShift(level), {cr3, asid_});
            if (table)
                return {level, *table};
        }
        return {4, cr3};
    }

    /**
     * Record that under @p cr3 the table at @p level for @p va is
     * @p table_pfn (called by the walker as it descends). @p level is the
     * level of the table being *entered* (3, 2, or 1).
     */
    void
    fill(Pfn cr3, VirtAddr va, int level, Pfn table_pfn)
    {
        if (level < 1 || level > 3)
            panic("PWC fill with bad level %d", level);
        levels[level - 1].insert(va >> tagShift(level), {cr3, asid_},
                                 table_pfn);
    }

    /** Invalidate all entries covering @p va, any ASID (shootdowns). */
    void
    invalidate(VirtAddr va)
    {
        for (int level = 1; level <= 3; ++level)
            levels[level - 1].invalidate(va >> tagShift(level));
    }

    /** Full flush (CR3 write without PCID). */
    void
    flushAll()
    {
        for (Level &l : levels)
            l.flush();
    }

    /** Selective flush of every entry tagged @p asid. */
    void
    flushAsid(Asid asid)
    {
        for (Level &l : levels)
            l.invalidateIf([&](const Root &r) { return r.asid == asid; });
    }

    /**
     * Visit every valid entry as (cr3, asid, level, table pfn), where
     * @p level is the level of the cached table — 3 for PML4E entries,
     * 2 for PDPTEs, 1 for PDEs, matching Probe::startLevel. Diagnostic/
     * validation hook (vmcheck); not part of the timed path.
     */
    void
    forEachEntry(const std::function<void(Pfn, Asid, int, Pfn)> &fn) const
    {
        for (int level = 3; level >= 1; --level) {
            levels[level - 1].forEach(
                [&](std::uint64_t, const Root &r, Pfn table) {
                    fn(r.cr3, r.asid, level, table);
                });
        }
    }

  private:
    /** An entry's qualifier: the root and address space it caches. */
    struct Root
    {
        Pfn cr3 = InvalidPfn;
        Asid asid = 0;
        bool operator==(const Root &) const = default;
    };
    using Level = cache::LruArray<Root, Pfn>;

    /** VA bits above this shift tag a level's entries: 21, 30, 39. */
    static constexpr unsigned
    tagShift(int level)
    {
        return PageShift + PtIndexBits * static_cast<unsigned>(level);
    }

    /** levels[i] caches the tables of level i + 1 (pde, pdpte, pml4e). */
    Level levels[3];
    Asid asid_ = 0;
};

} // namespace mitosim::tlb

#endif // MITOSIM_TLB_PAGING_STRUCTURE_CACHE_H
