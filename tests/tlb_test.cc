/**
 * @file
 * Unit tests for the two-level TLB: hit/miss paths, size classes,
 * promotion, invalidation and LRU behaviour.
 */

#include <gtest/gtest.h>

#include "src/tlb/tlb.h"

namespace mitosim::tlb
{
namespace
{

TlbEntry
entry4K(Pfn pfn, bool writable = true)
{
    TlbEntry e;
    e.pfn = pfn;
    e.writable = writable;
    e.size = PageSizeKind::Base4K;
    return e;
}

TlbEntry
entry2M(Pfn pfn)
{
    TlbEntry e;
    e.pfn = pfn;
    e.writable = true;
    e.size = PageSizeKind::Large2M;
    return e;
}

TEST(Tlb, MissOnEmpty)
{
    TwoLevelTlb tlb;
    auto res = tlb.lookup(0x1000);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.hitLevel, 0);
    EXPECT_EQ(res.latency, TlbConfig{}.l2HitLatency);
}

TEST(Tlb, InsertThenL1Hit)
{
    TwoLevelTlb tlb;
    tlb.insert(0x1000, entry4K(42));
    auto res = tlb.lookup(0x1abc); // same page, different offset
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.hitLevel, 1);
    EXPECT_EQ(res.entry.pfn, 42u);
    EXPECT_EQ(res.latency, TlbConfig{}.l1HitLatency);
}

TEST(Tlb, DifferentPageMisses)
{
    TwoLevelTlb tlb;
    tlb.insert(0x1000, entry4K(42));
    EXPECT_FALSE(tlb.lookup(0x2000).hit);
}

TEST(Tlb, L2HitAfterL1Eviction)
{
    TlbConfig cfg;
    cfg.l1Entries4K = 8;
    cfg.l1Ways = 4;
    cfg.l2Entries = 1024;
    TwoLevelTlb tlb(cfg);
    // Fill far beyond L1 capacity; early pages remain in L2.
    for (VirtAddr va = 0; va < 64 * PageSize; va += PageSize)
        tlb.insert(va, entry4K(va >> PageShift));
    auto res = tlb.lookup(0);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.hitLevel, 2);
    EXPECT_EQ(res.latency, cfg.l2HitLatency);
    // The L2 hit promotes to L1: the next lookup is an L1 hit.
    auto res2 = tlb.lookup(0);
    EXPECT_EQ(res2.hitLevel, 1);
}

TEST(Tlb, CapacityEvictionProducesMisses)
{
    TlbConfig cfg;
    cfg.l1Entries4K = 8;
    cfg.l1Ways = 4;
    cfg.l2Entries = 16;
    cfg.l2Ways = 4;
    TwoLevelTlb tlb(cfg);
    for (VirtAddr va = 0; va < 1024 * PageSize; va += PageSize)
        tlb.insert(va, entry4K(va >> PageShift));
    // Old translations must be long gone.
    EXPECT_FALSE(tlb.lookup(0).hit);
}

TEST(Tlb, LargePageCoversWholeRange)
{
    TwoLevelTlb tlb;
    tlb.insert(0x40000000ull, entry2M(512));
    for (VirtAddr off : {0ull, 4096ull, 1024 * 1024ull, 2097151ull}) {
        auto res = tlb.lookup(0x40000000ull + off);
        EXPECT_TRUE(res.hit) << "offset " << off;
        EXPECT_EQ(res.entry.size, PageSizeKind::Large2M);
    }
    EXPECT_FALSE(tlb.lookup(0x40000000ull + LargePageSize).hit);
}

TEST(Tlb, SizeClassesDoNotCollide)
{
    TwoLevelTlb tlb;
    // A 2M entry and a 4K entry whose tags would alias numerically.
    tlb.insert(0x40000000ull, entry2M(1000));
    tlb.insert(0x40000000ull >> 9, entry4K(2000));
    auto large = tlb.lookup(0x40000000ull + 0x3000);
    EXPECT_TRUE(large.hit);
    EXPECT_EQ(large.entry.pfn, 1000u);
}

TEST(Tlb, InvalidatePageDropsBothLevels)
{
    TlbConfig cfg;
    cfg.l1Entries4K = 8;
    cfg.l1Ways = 4;
    TwoLevelTlb tlb(cfg);
    tlb.insert(0x5000, entry4K(5));
    tlb.invalidatePage(0x5000);
    EXPECT_FALSE(tlb.lookup(0x5000).hit);
    // Page 1 falls out of L1; its L2 hit promotes it back, so it is
    // resident in both levels when invalidated.
    for (VirtAddr va = 0; va < 64 * PageSize; va += PageSize)
        tlb.insert(va, entry4K(va >> PageShift));
    ASSERT_EQ(tlb.lookup(PageSize).hitLevel, 2);
    tlb.invalidatePage(PageSize);
    EXPECT_FALSE(tlb.lookup(PageSize).hit);
}

TEST(Tlb, InvalidateLargePage)
{
    TwoLevelTlb tlb;
    tlb.insert(0x40000000ull, entry2M(7));
    tlb.invalidatePage(0x40000000ull + 0x1000);
    EXPECT_FALSE(tlb.lookup(0x40000000ull).hit);
}

TEST(Tlb, FlushAllEmptiesEverything)
{
    TwoLevelTlb tlb;
    for (VirtAddr va = 0; va < 32 * PageSize; va += PageSize)
        tlb.insert(va, entry4K(va >> PageShift));
    tlb.flushAll();
    for (VirtAddr va = 0; va < 32 * PageSize; va += PageSize)
        EXPECT_FALSE(tlb.lookup(va).hit);
}

TEST(Tlb, WritableFlagIsPreserved)
{
    TwoLevelTlb tlb;
    tlb.insert(0x1000, entry4K(1, false));
    auto res = tlb.lookup(0x1000);
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.entry.writable);
}

TEST(Tlb, LruKeepsHotEntryInSet)
{
    TlbConfig cfg;
    cfg.l1Entries4K = 4;
    cfg.l1Ways = 4; // one set
    cfg.l2Entries = 8;
    cfg.l2Ways = 8; // one set
    TwoLevelTlb tlb(cfg);
    tlb.insert(0x0000, entry4K(0));
    // Keep page 0 hot while streaming many others through.
    for (int i = 1; i <= 6; ++i) {
        tlb.lookup(0x0000);
        tlb.insert(static_cast<VirtAddr>(i) * PageSize,
                   entry4K(static_cast<Pfn>(i)));
    }
    EXPECT_TRUE(tlb.lookup(0x0000).hit);
}

/** Copies of the 4 KB page at @p va across both levels. */
int
copiesOf(const TwoLevelTlb &tlb, VirtAddr va)
{
    int n = 0;
    tlb.forEachEntry([&](VirtAddr v, Asid, const TlbEntry &) {
        n += v == va;
    });
    return n;
}

TEST(Tlb, InvalidationHoleIsRefilledBeforeEviction)
{
    TlbConfig cfg;
    cfg.l1Entries4K = 4;
    cfg.l1Ways = 4; // one L1 set; L2 is large enough to keep everything
    TwoLevelTlb tlb(cfg);
    for (VirtAddr p = 0; p < 4; ++p)
        tlb.insert(p * PageSize, entry4K(p)); // way p holds page p
    tlb.invalidatePage(1 * PageSize);             // hole in way 1
    ASSERT_EQ(tlb.lookup(0).hitLevel, 1);         // page 0 now newest
    tlb.insert(4 * PageSize, entry4K(4));         // fills the hole
    for (VirtAddr p : {0, 2, 3, 4})
        EXPECT_EQ(copiesOf(tlb, p * PageSize), 2) << p; // L1 + L2
    // No hole left: the least recently used survivor (page 2) goes.
    tlb.insert(5 * PageSize, entry4K(5));
    EXPECT_EQ(copiesOf(tlb, 2 * PageSize), 1); // L2 only
    for (VirtAddr p : {0, 3, 4, 5})
        EXPECT_EQ(copiesOf(tlb, p * PageSize), 2) << p;
}

TEST(Tlb, ReinsertBehindHoleKeepsOneCopyPerLevel)
{
    TlbConfig cfg;
    cfg.l1Entries4K = 4;
    cfg.l1Ways = 4;
    cfg.l2Entries = 4;
    cfg.l2Ways = 4; // one set per level
    TwoLevelTlb tlb(cfg);
    for (VirtAddr p = 0; p < 4; ++p)
        tlb.insert(p * PageSize, entry4K(p));
    tlb.invalidatePage(1 * PageSize); // a hole before page 2 in both
    tlb.insert(2 * PageSize, entry4K(99));
    int copies = 0;
    tlb.forEachEntry([&](VirtAddr va, Asid, const TlbEntry &e) {
        if (va == 2 * PageSize) {
            ++copies;
            EXPECT_EQ(e.pfn, 99u);
        }
    });
    EXPECT_EQ(copies, 2);
}

TEST(Tlb, PaperSizesAreDefault)
{
    // §8: "per-core two-level TLB with 64+1024 entries".
    TlbConfig cfg;
    EXPECT_EQ(cfg.l1Entries4K, 64u);
    EXPECT_EQ(cfg.l2Entries, 1024u);
}

} // namespace
} // namespace mitosim::tlb
