/**
 * @file
 * Property tests for ASID-tagged translation caching.
 *
 * Random sequences of context switches, inserts/fills, lookups, page
 * invalidations, remaps and selective/total flushes drive the tagged
 * TLB and PWC against ground truth (the "page tables": what each
 * address space currently maps) and against a flush-everything
 * reference device (the PCID-off degenerate: flushed on every context
 * switch). Invariants:
 *
 *  - every tagged hit returns exactly the current address space's
 *    ground-truth translation — never another ASID's (no cross-ASID
 *    leakage), never a stale pre-remap value;
 *  - the flush-everything reference obeys the same invariant, and on
 *    lookups where both devices hit they agree entry-for-entry (the
 *    tagged device is a superset cache, not a different translator);
 *  - after flushAsid(a), no later lookup under any ASID can see a's
 *    pre-flush entries (remap-then-flushAsid would expose survivors).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/base/rng.h"
#include "src/tlb/paging_structure_cache.h"
#include "src/tlb/tlb.h"

namespace mitosim::tlb
{
namespace
{

constexpr int NumAsids = 4;
constexpr std::uint64_t NumPages = 48; //!< small: force aliasing + evictions

/** What each address space currently maps (the page tables). */
struct Truth
{
    // vpn -> (pfn, writable); absent = unmapped (a hit would be stale).
    std::map<std::uint64_t, TlbEntry> map[NumAsids];
};

void
checkHit(const Truth &truth, int asid, VirtAddr va,
         const TlbLookupResult &res, const char *device)
{
    if (!res.hit)
        return;
    std::uint64_t vpn = va >> PageShift;
    auto it = truth.map[asid].find(vpn);
    ASSERT_NE(it, truth.map[asid].end())
        << device << ": hit for unmapped vpn=" << vpn
        << " under asid=" << asid;
    EXPECT_EQ(res.entry.pfn, it->second.pfn)
        << device << ": stale/foreign pfn for vpn=" << vpn
        << " under asid=" << asid;
    EXPECT_EQ(res.entry.writable, it->second.writable) << device;
}

TEST(AsidProperty, TaggedTlbAgreesWithFlushEverythingReference)
{
    Rng rng(20260728);
    TlbConfig small;
    small.l1Entries4K = 16;
    small.l1Entries2M = 8;
    small.l2Entries = 64;
    TwoLevelTlb tagged(small);
    TwoLevelTlb reference(small); //!< flushed on every switch (no PCID)

    Truth truth;
    std::uint64_t next_pfn = 1000;
    int asid = 1; // any of [0, NumAsids)
    tagged.setAsid(static_cast<Asid>(asid));
    reference.setAsid(0); // the reference never relies on tags
    std::uint64_t tagged_hits = 0;
    std::uint64_t asid_flushes = 0;

    for (int op = 0; op < 60000; ++op) {
        std::uint64_t vpn = rng.below(NumPages);
        VirtAddr va = (vpn << PageShift) + rng.below(PageSize);
        switch (rng.below(10)) {
          case 0: { // context switch
            asid = static_cast<int>(rng.below(NumAsids));
            tagged.setAsid(static_cast<Asid>(asid));
            reference.flushAll(); // PCID off: CR3 load flushes
            break;
          }
          case 1:
          case 2:
          case 3: { // walk finished: install the current translation
            auto it = truth.map[asid].find(vpn);
            TlbEntry entry;
            if (it != truth.map[asid].end()) {
                entry = it->second;
            } else {
                entry.pfn = next_pfn++;
                entry.writable = rng.chance(0.5);
                truth.map[asid][vpn] = entry;
            }
            tagged.insert(va, entry);
            reference.insert(va, entry);
            break;
          }
          case 4: { // munmap: remove + shootdown (all ASIDs)
            for (int a = 0; a < NumAsids; ++a)
                truth.map[a].erase(vpn);
            tagged.invalidatePage(va);
            reference.invalidatePage(va);
            break;
          }
          case 5: { // remap one ASID's page, with proper invalidation
            TlbEntry entry;
            entry.pfn = next_pfn++;
            entry.writable = true;
            // invalidatePage is cross-ASID; every space loses the vpn.
            for (int a = 0; a < NumAsids; ++a)
                truth.map[a].erase(vpn);
            truth.map[asid][vpn] = entry;
            tagged.invalidatePage(va);
            reference.invalidatePage(va);
            tagged.insert(va, entry);
            reference.insert(va, entry);
            break;
          }
          case 6: { // ASID teardown: remap the whole space, then
                    // selectively flush it — survivors would be stale
            int victim = static_cast<int>(rng.below(NumAsids));
            for (auto &[v, entry] : truth.map[victim])
                entry.pfn = next_pfn++;
            tagged.flushAsid(static_cast<Asid>(victim));
            ++asid_flushes;
            if (victim == asid)
                reference.flushAll();
            break;
          }
          default: { // lookup
            auto tagged_res = tagged.lookup(va);
            auto ref_res = reference.lookup(va);
            checkHit(truth, asid, va, tagged_res, "tagged");
            checkHit(truth, asid, va, ref_res, "reference");
            tagged_hits += tagged_res.hit;
            if (tagged_res.hit && ref_res.hit) {
                EXPECT_EQ(tagged_res.entry.pfn, ref_res.entry.pfn);
                EXPECT_EQ(tagged_res.entry.writable,
                          ref_res.entry.writable);
            }
            break;
          }
        }
    }
    EXPECT_GT(tagged_hits, 0u);
    EXPECT_GT(asid_flushes, 0u);
}

/** Same drive for the PWC: (cr3, ASID, va-prefix)-tagged table cache. */
TEST(AsidProperty, TaggedPwcNeverLeaksAcrossAsids)
{
    Rng rng(777);
    PagingStructureCache tagged;
    PagingStructureCache reference;

    // Every address space uses the SAME root pfn — the recycled-frame
    // worst case, where (cr3, va) tagging alone would alias spaces and
    // only the ASID tag keeps them apart. Ground truth per (level,
    // tag); tags come from a small VA pool so prefixes collide
    // constantly.
    constexpr std::uint64_t NumRegions = 12;
    Pfn roots[NumAsids];
    for (int a = 0; a < NumAsids; ++a)
        roots[a] = 100;
    std::map<std::pair<int, std::uint64_t>, Pfn> truth[NumAsids];
    std::uint64_t next_table = 5000;
    int asid = 0;
    std::uint64_t tagged_hits = 0;
    std::uint64_t asid_flushes = 0;
    auto vaOf = [](std::uint64_t region) {
        return region << 30; // 1 GiB apart: distinct at every level
    };
    auto tagOf = [&](int level, VirtAddr va) {
        unsigned shift = level == 3 ? 39u : (level == 2 ? 30u : 21u);
        return std::make_pair(level, va >> shift);
    };

    for (int op = 0; op < 60000; ++op) {
        std::uint64_t region = rng.below(NumRegions);
        VirtAddr va = vaOf(region) + rng.below(LargePageSize);
        switch (rng.below(8)) {
          case 0: { // context switch
            asid = static_cast<int>(rng.below(NumAsids));
            tagged.setAsid(static_cast<Asid>(asid));
            reference.flushAll();
            break;
          }
          case 1:
          case 2: { // walker descended: fill one level
            int level = 1 + static_cast<int>(rng.below(3));
            auto key = tagOf(level, va);
            auto it = truth[asid].find(key);
            Pfn table;
            if (it != truth[asid].end()) {
                table = it->second;
            } else {
                table = next_table++;
                truth[asid][key] = table;
            }
            tagged.fill(roots[asid], va, level, table);
            reference.fill(roots[asid], va, level, table);
            break;
          }
          case 3: { // table freed (munmap of the range): invalidate
            for (int a = 0; a < NumAsids; ++a) {
                for (int level = 1; level <= 3; ++level)
                    truth[a].erase(tagOf(level, va));
            }
            tagged.invalidate(va);
            reference.invalidate(va);
            break;
          }
          case 4: { // ASID teardown: remap all tables + selective flush
            int victim = static_cast<int>(rng.below(NumAsids));
            for (auto &[key, table] : truth[victim])
                table = next_table++;
            tagged.flushAsid(static_cast<Asid>(victim));
            ++asid_flushes;
            if (victim == asid)
                reference.flushAll();
            break;
          }
          default: { // probe
            auto t = tagged.lookup(roots[asid], va);
            auto r = reference.lookup(roots[asid], va);
            if (t.startLevel < 4) {
                ++tagged_hits;
                auto key = tagOf(t.startLevel, va);
                auto it = truth[asid].find(key);
                ASSERT_NE(it, truth[asid].end())
                    << "tagged PWC hit for an unmapped prefix";
                EXPECT_EQ(t.tablePfn, it->second)
                    << "stale/foreign table under asid=" << asid;
            }
            if (r.startLevel < 4) {
                auto key = tagOf(r.startLevel, va);
                auto it = truth[asid].find(key);
                ASSERT_NE(it, truth[asid].end());
                EXPECT_EQ(r.tablePfn, it->second);
            }
            if (t.startLevel < 4 && t.startLevel == r.startLevel) {
                EXPECT_EQ(t.tablePfn, r.tablePfn);
            }
            break;
          }
        }
    }
    EXPECT_GT(tagged_hits, 0u);
    EXPECT_GT(asid_flushes, 0u);
}

} // namespace
} // namespace mitosim::tlb
