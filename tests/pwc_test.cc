/**
 * @file
 * Unit tests for the paging-structure cache: per-level fills, deepest-hit
 * lookup, CR3 tagging (replica independence) and invalidation.
 */

#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/tlb/paging_structure_cache.h"

namespace mitosim::tlb
{
namespace
{

constexpr Pfn Cr3A = 100;
constexpr Pfn Cr3B = 200;

TEST(Pwc, EmptyStartsAtRoot)
{
    PagingStructureCache pwc;
    auto probe = pwc.lookup(Cr3A, 0x12345678);
    EXPECT_EQ(probe.startLevel, 4);
    EXPECT_EQ(probe.tablePfn, Cr3A);
}

TEST(Pwc, FillPml4eSkipsToL3)
{
    PagingStructureCache pwc;
    VirtAddr va = 0x40000000ull;
    pwc.fill(Cr3A, va, 3, 50);
    auto probe = pwc.lookup(Cr3A, va);
    EXPECT_EQ(probe.startLevel, 3);
    EXPECT_EQ(probe.tablePfn, 50u);
}

TEST(Pwc, DeepestLevelWins)
{
    PagingStructureCache pwc;
    VirtAddr va = 0x40000000ull;
    pwc.fill(Cr3A, va, 3, 50);
    pwc.fill(Cr3A, va, 2, 51);
    pwc.fill(Cr3A, va, 1, 52);
    auto probe = pwc.lookup(Cr3A, va);
    EXPECT_EQ(probe.startLevel, 1);
    EXPECT_EQ(probe.tablePfn, 52u);
}

TEST(Pwc, PdeCoversIts2MRange)
{
    PagingStructureCache pwc;
    VirtAddr va = 0x40000000ull;
    pwc.fill(Cr3A, va, 1, 52);
    EXPECT_EQ(pwc.lookup(Cr3A, va + 0x1ff000).startLevel, 1);
    EXPECT_EQ(pwc.lookup(Cr3A, va + LargePageSize).startLevel, 4);
}

TEST(Pwc, Cr3TagsIsolateProcessesAndReplicas)
{
    // The same VA under a different root (e.g. a socket-local replica
    // after migration) must not hit stale entries.
    PagingStructureCache pwc;
    VirtAddr va = 0x40000000ull;
    pwc.fill(Cr3A, va, 1, 52);
    auto probe = pwc.lookup(Cr3B, va);
    EXPECT_EQ(probe.startLevel, 4);
    EXPECT_EQ(probe.tablePfn, Cr3B);
}

TEST(Pwc, CapacityEviction)
{
    PwcConfig cfg;
    cfg.pdeEntries = 4;
    PagingStructureCache pwc(cfg);
    for (int i = 0; i < 16; ++i) {
        pwc.fill(Cr3A, static_cast<VirtAddr>(i) * LargePageSize, 1,
                 static_cast<Pfn>(i));
    }
    // The first entries must have been evicted.
    EXPECT_EQ(pwc.lookup(Cr3A, 0).startLevel, 4);
    // The last is still cached.
    EXPECT_EQ(pwc.lookup(Cr3A, 15 * LargePageSize).startLevel, 1);
}

TEST(Pwc, LruPrefersRecentlyUsed)
{
    PwcConfig cfg;
    cfg.pdeEntries = 2;
    PagingStructureCache pwc(cfg);
    pwc.fill(Cr3A, 0 * LargePageSize, 1, 10);
    pwc.fill(Cr3A, 1 * LargePageSize, 1, 11);
    pwc.lookup(Cr3A, 0); // refresh entry 0
    pwc.fill(Cr3A, 2 * LargePageSize, 1, 12); // evicts entry 1
    EXPECT_EQ(pwc.lookup(Cr3A, 0).startLevel, 1);
    EXPECT_EQ(pwc.lookup(Cr3A, 1 * LargePageSize).startLevel, 4);
}

TEST(Pwc, InvalidateDropsAllLevelsForVa)
{
    PagingStructureCache pwc;
    VirtAddr va = 0x40000000ull;
    pwc.fill(Cr3A, va, 3, 50);
    pwc.fill(Cr3A, va, 2, 51);
    pwc.fill(Cr3A, va, 1, 52);
    pwc.invalidate(va);
    EXPECT_EQ(pwc.lookup(Cr3A, va).startLevel, 4);
}

TEST(Pwc, FlushAllClears)
{
    PagingStructureCache pwc;
    VirtAddr va = 0x40000000ull;
    pwc.fill(Cr3A, va, 3, 50);
    pwc.fill(Cr3A, va, 2, 51);
    pwc.fill(Cr3A, va, 1, 52);
    pwc.flushAll();
    EXPECT_EQ(pwc.lookup(Cr3A, va).startLevel, 4);
}

TEST(Pwc, UpdateExistingEntryInPlace)
{
    PagingStructureCache pwc;
    pwc.fill(Cr3A, 0x1000, 1, 5);
    pwc.fill(Cr3A, 0x1000, 1, 9); // e.g. table replaced
    auto probe = pwc.lookup(Cr3A, 0x1000);
    EXPECT_EQ(probe.tablePfn, 9u);
}

TEST(Pwc, InvalidationHoleIsRefilledBeforeEviction)
{
    PwcConfig cfg;
    cfg.pdeEntries = 4;
    PagingStructureCache pwc(cfg);
    for (int i = 0; i < 4; ++i) {
        pwc.fill(Cr3A, static_cast<VirtAddr>(i) * LargePageSize, 1,
                 static_cast<Pfn>(10 + i));
    }
    pwc.invalidate(1 * LargePageSize);                    // hole
    ASSERT_EQ(pwc.lookup(Cr3A, 0).startLevel, 1);         // 0 is newest
    pwc.fill(Cr3A, 4 * LargePageSize, 1, 14);             // fills it
    // Probed oldest first, so the touches keep the LRU order.
    for (VirtAddr r : {2, 3, 0, 4})
        EXPECT_EQ(pwc.lookup(Cr3A, r * LargePageSize).startLevel, 1) << r;
    // No hole left: the least recently used survivor (region 2) goes.
    pwc.fill(Cr3A, 5 * LargePageSize, 1, 15);
    EXPECT_EQ(pwc.lookup(Cr3A, 2 * LargePageSize).startLevel, 4);
    for (VirtAddr r : {0, 3, 4, 5})
        EXPECT_EQ(pwc.lookup(Cr3A, r * LargePageSize).startLevel, 1) << r;
}

TEST(Pwc, RefillBehindHoleUpdatesInPlace)
{
    PwcConfig cfg;
    cfg.pdeEntries = 4;
    PagingStructureCache pwc(cfg);
    for (int i = 0; i < 4; ++i) {
        pwc.fill(Cr3A, static_cast<VirtAddr>(i) * LargePageSize, 1,
                 static_cast<Pfn>(10 + i));
    }
    pwc.invalidate(1 * LargePageSize); // a hole before region 2
    pwc.fill(Cr3A, 2 * LargePageSize, 1, 99);
    int pdes = 0, old_copies = 0, new_copies = 0;
    pwc.forEachEntry([&](Pfn, Asid, int level, Pfn table) {
        pdes += level == 1;
        old_copies += table == 12;
        new_copies += table == 99;
    });
    EXPECT_EQ(pdes, 3);
    EXPECT_EQ(old_copies, 0);
    EXPECT_EQ(new_copies, 1);
}

TEST(Pwc, BadLevelFillPanics)
{
    PagingStructureCache pwc;
    EXPECT_THROW(pwc.fill(Cr3A, 0, 4, 1), SimError);
    EXPECT_THROW(pwc.fill(Cr3A, 0, 0, 1), SimError);
}

} // namespace
} // namespace mitosim::tlb
