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
 * The cache keeps no counters of its own: lookup() returns where the
 * walk starts, and the walker charges the table reads it then issues
 * to PerfCounters.
 */

#ifndef MITOSIM_TLB_PAGING_STRUCTURE_CACHE_H
#define MITOSIM_TLB_PAGING_STRUCTURE_CACHE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/logging.h"
#include "src/base/types.h"

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
    explicit PagingStructureCache(const PwcConfig &config = PwcConfig{});

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
        Probe p;
        // MRU memo over the pde level (the first and longest scan of
        // every probe): the most recently stamped pde entry, cleared
        // by every invalidation path. Exact by MRU idempotence — the
        // memo entry's stamp is the newest in the (fully-associative)
        // pde array, so skipping the re-stamp cannot change any LRU
        // victim choice, and the probe result is exactly the scan's. Sequential walk streams (populate, range
        // sweeps) hit the same 2 MB prefix for 512 walks in a row.
        if ((va >> PdeShift) == memoTag_ && cr3 == memoCr3_ &&
            asid_ == memoAsid_) {
            p.startLevel = 1;
            p.tablePfn = memoTablePfn_;
            return p;
        }
        if (std::size_t s = pde.find(cr3, asid_, va); s != npos) {
            pde.lrus[s] = ++clock;
            p.startLevel = 1;
            p.tablePfn = pde.tablePfns[s];
            noteMru(cr3, va, pde.tablePfns[s]);
            return p;
        }
        if (std::size_t s = pdpte.find(cr3, asid_, va); s != npos) {
            pdpte.lrus[s] = ++clock;
            p.startLevel = 2;
            p.tablePfn = pdpte.tablePfns[s];
            return p;
        }
        if (std::size_t s = pml4e.find(cr3, asid_, va); s != npos) {
            pml4e.lrus[s] = ++clock;
            p.startLevel = 3;
            p.tablePfn = pml4e.tablePfns[s];
            return p;
        }
        p.startLevel = 4;
        p.tablePfn = cr3;
        return p;
    }

    /**
     * Record that under @p cr3 the table at @p level for @p va is
     * @p table_pfn (called by the walker as it descends). @p level is the
     * level of the table being *entered* (3, 2, or 1).
     */
    void
    fill(Pfn cr3, VirtAddr va, int level, Pfn table_pfn)
    {
        switch (level) {
          case 3:
            pml4e.insert(cr3, asid_, va, table_pfn, ++clock);
            break;
          case 2:
            pdpte.insert(cr3, asid_, va, table_pfn, ++clock);
            break;
          case 1:
            pde.insert(cr3, asid_, va, table_pfn, ++clock);
            noteMru(cr3, va, table_pfn); // freshest stamp in the level
            break;
          default:
            panic("PWC fill with bad level %d", level);
        }
    }

    /** Invalidate all entries covering @p va, any ASID (shootdowns). */
    void invalidate(VirtAddr va);

    /** Full flush (CR3 write without PCID). */
    void flushAll();

    /** Selective flush of every entry tagged @p asid. */
    void flushAsid(Asid asid);

    /**
     * Visit every valid entry as (cr3, asid, level, table pfn), where
     * @p level is the level of the cached table — 3 for PML4E entries,
     * 2 for PDPTEs, 1 for PDEs, matching Probe::startLevel. Diagnostic/
     * validation hook (vmcheck); not part of the timed path.
     */
    void forEachEntry(
        const std::function<void(Pfn, Asid, int, Pfn)> &fn) const;

  private:
    static constexpr std::size_t npos = ~std::size_t{0};
    /** pde-level tag shift (va >> 21 == 2 MB region index). */
    static constexpr unsigned PdeShift = 21;

    void
    noteMru(Pfn cr3, VirtAddr va, Pfn table_pfn)
    {
        memoTag_ = va >> PdeShift;
        memoCr3_ = cr3;
        memoAsid_ = asid_;
        memoTablePfn_ = table_pfn;
    }
    void clearMemo() { memoTag_ = ~0ull; }

    /**
     * Fully-associative array for one level, stored struct-of-arrays:
     * the packed vaTag vector is scanned first (it is the most
     * discriminating field for a single process, and the whole pde
     * level's tags fit in four cache lines), cr3 / ASID confirm only
     * on a tag match. Scan order, the free-slot early break in insert,
     * and the lowest-LRU tiebreak are identical to the old slot scan,
     * so victim choice — and therefore every simulated outcome — is
     * unchanged. Emptiness is keyed on cr3 == InvalidPfn, exactly as
     * before (invalidate/flush leave stale vaTags behind, which can
     * never match because a live cr3 is never InvalidPfn).
     */
    struct Level
    {
        std::vector<std::uint64_t> vaTags;
        std::vector<Pfn> cr3s; //!< InvalidPfn = empty slot
        std::vector<Asid> asids;
        std::vector<Pfn> tablePfns;
        std::vector<std::uint32_t> lrus;
        unsigned tagShift; //!< VA bits above this shift form the tag

        /**
         * Sticky "insert() has ever run" flag: lets find() skip the tag
         * scan entirely while the level has never been filled. A 2 MB-
         * mapped address space never fills the pde level (walks stop at
         * the level-2 leaf), so its 32-tag scan — the first probe of
         * every lookup — is pure waste there. Decision-identical: with
         * no insert ever, every slot is empty and find() misses anyway.
         */
        bool everInserted = false;

        void resize(unsigned n);

        std::size_t
        find(Pfn cr3, Asid asid, VirtAddr va) const
        {
            if (!everInserted)
                return npos;
            std::uint64_t tag = va >> tagShift;
            for (std::size_t i = 0; i < vaTags.size(); ++i) {
                if (vaTags[i] == tag && cr3s[i] == cr3 &&
                    asids[i] == asid)
                    return i;
            }
            return npos;
        }

        void
        insert(Pfn cr3, Asid asid, VirtAddr va, Pfn table,
               std::uint32_t now)
        {
            everInserted = true;
            std::uint64_t tag = va >> tagShift;
            std::size_t victim = 0;
            for (std::size_t i = 0; i < vaTags.size(); ++i) {
                if (cr3s[i] == cr3 && asids[i] == asid &&
                    vaTags[i] == tag) {
                    tablePfns[i] = table;
                    lrus[i] = now;
                    return;
                }
                if (cr3s[i] == InvalidPfn) {
                    victim = i;
                    break;
                }
                if (lrus[i] < lrus[victim])
                    victim = i;
            }
            cr3s[victim] = cr3;
            asids[victim] = asid;
            vaTags[victim] = tag;
            tablePfns[victim] = table;
            lrus[victim] = now;
        }

        void invalidate(VirtAddr va);
        void flush();
        void flushAsid(Asid asid);

        /** Visit every valid slot as (cr3, asid, tablePfn). */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (std::size_t i = 0; i < cr3s.size(); ++i) {
                if (cr3s[i] != InvalidPfn)
                    fn(cr3s[i], asids[i], tablePfns[i]);
            }
        }
    };

    // pml4e cache: tag = va >> 39, yields L3 table (startLevel 3)
    // pdpte cache: tag = va >> 30, yields L2 table (startLevel 2)
    // pde cache:   tag = va >> 21, yields L1 table (startLevel 1)
    Level pml4e;
    Level pdpte;
    Level pde;
    Asid asid_ = 0;
    std::uint32_t clock = 0;
    /**
     * pde-level MRU memo (see lookup()): ~0 tag = empty (no shifted VA
     * can produce it). Cleared by invalidate/flushAll/flushAsid.
     */
    std::uint64_t memoTag_ = ~0ull;
    Pfn memoCr3_ = InvalidPfn;
    Asid memoAsid_ = 0;
    Pfn memoTablePfn_ = InvalidPfn;
};

} // namespace mitosim::tlb

#endif // MITOSIM_TLB_PAGING_STRUCTURE_CACHE_H
