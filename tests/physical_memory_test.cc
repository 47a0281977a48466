/**
 * @file
 * Unit tests for mem::PhysicalMemory: typed allocation, PageMeta, the
 * replica circular list (Figure 8), PT reserve caches (§5.1), migration
 * and fragmentation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/mem/physical_memory.h"

namespace mitosim::mem
{
namespace
{

numa::TopologyConfig
smallTopo()
{
    numa::TopologyConfig cfg;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 2;
    cfg.memPerSocket = 16ull << 20;
    return cfg;
}

class PhysicalMemoryTest : public ::testing::Test
{
  protected:
    PhysicalMemoryTest() : topo(smallTopo()), pm(topo) {}

    numa::Topology topo;
    PhysicalMemory pm;
};

TEST_F(PhysicalMemoryTest, DataAllocHomesOnRequestedSocket)
{
    for (SocketId s = 0; s < 4; ++s) {
        auto pfn = pm.allocData(s, 1);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(pm.socketOf(*pfn), s);
        EXPECT_EQ(pm.meta(*pfn).type, FrameType::Data);
        EXPECT_EQ(pm.meta(*pfn).owner, 1);
    }
}

TEST_F(PhysicalMemoryTest, DataAnyFallsBackWhenSocketFull)
{
    // Exhaust socket 0.
    while (pm.allocData(0, 1))
        ;
    auto pfn = pm.allocDataAny(0, 1);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_NE(pm.socketOf(*pfn), 0);
}

TEST_F(PhysicalMemoryTest, LargeDataPageKeepsOneBlockRecord)
{
    EXPECT_EQ(pm.largeOwner(0), -1);
    auto head = pm.allocDataLarge(2, 7);
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(pm.largeOwner(*head), 7);
    EXPECT_EQ(pm.largeOwner(*head + 1), 7);
    EXPECT_EQ(pm.largeOwner(*head + 511), 7);
    EXPECT_EQ(pm.largeOwner(*head + 512), -1);
    EXPECT_EQ(pm.stats(2).dataLargePages, 1u);
    // The record is the page's only metadata: no chunk is touched.
    EXPECT_FALSE(pm.metaMaterialized(*head));
    EXPECT_TRUE(std::as_const(pm).meta(*head + 5).isFree());
    pm.freeDataLarge(*head);
    EXPECT_EQ(pm.stats(2).dataLargePages, 0u);
    EXPECT_EQ(pm.largeOwner(*head), -1);
    EXPECT_FALSE(pm.metaMaterialized(*head));
}

TEST_F(PhysicalMemoryTest, SplitGivesEveryFrameItsOwnRecord)
{
    auto head = pm.allocDataLarge(1, 4);
    ASSERT_TRUE(head.has_value());
    pm.splitLargeData(*head);
    EXPECT_EQ(pm.largeOwner(*head), -1);
    EXPECT_EQ(pm.stats(1).dataLargePages, 0u);
    EXPECT_EQ(pm.stats(1).dataPages, FramesPerLargePage);
    for (Pfn p = *head; p < *head + FramesPerLargePage; ++p) {
        const PageMeta &m = std::as_const(pm).meta(p);
        ASSERT_EQ(m.type, FrameType::Data) << p;
        ASSERT_EQ(m.owner, 4) << p;
        ASSERT_EQ(m.replicaNext, p) << p;
    }
    for (Pfn p = *head; p < *head + FramesPerLargePage; ++p)
        pm.freeData(p);
    EXPECT_EQ(pm.stats(1).dataPages, 0u);
    EXPECT_EQ(pm.freeLargeBlocks(1), pm.allocator(1).numBlocks());
}

TEST_F(PhysicalMemoryTest, FreeDataRejectsLargePages)
{
    auto head = pm.allocDataLarge(0, 1);
    ASSERT_TRUE(head.has_value());
    EXPECT_THROW(pm.freeData(*head), SimError);
    EXPECT_THROW(pm.freeData(*head + 3), SimError);
    pm.freeDataLarge(*head);
}

TEST_F(PhysicalMemoryTest, PtAllocIsZeroedAndSelfLinked)
{
    auto pfn = pm.allocPt(1, 3, 42);
    ASSERT_TRUE(pfn.has_value());
    const PageMeta &m = pm.meta(*pfn);
    EXPECT_TRUE(m.isPageTable());
    EXPECT_EQ(m.level, 3);
    EXPECT_EQ(m.owner, 42);
    EXPECT_EQ(m.replicaNext, *pfn);
    const std::uint64_t *tbl = pm.table(*pfn);
    for (unsigned i = 0; i < PtEntriesPerPage; ++i)
        ASSERT_EQ(tbl[i], 0u);
    EXPECT_EQ(pm.ptPagesAt(1, 3), 1u);
    pm.freePt(*pfn);
    EXPECT_EQ(pm.ptPagesAt(1, 3), 0u);
}

TEST_F(PhysicalMemoryTest, TableAccessOnDataFramePanics)
{
    auto pfn = pm.allocData(0, 1);
    ASSERT_TRUE(pfn.has_value());
#ifdef NDEBUG
    // The type check sits on the per-PTE-read hot path and is
    // MITOSIM_DASSERT: active in Debug/sanitizer builds only.
    GTEST_SKIP() << "table() type check compiled out under NDEBUG";
#else
    EXPECT_THROW(pm.table(*pfn), SimError);
#endif
}

TEST_F(PhysicalMemoryTest, ReplicaListLinkUnlink)
{
    Pfn a = *pm.allocPt(0, 1, 1);
    Pfn b = *pm.allocPt(1, 1, 1);
    Pfn c = *pm.allocPt(2, 1, 1);
    pm.linkReplica(a, b);
    pm.linkReplica(a, c);
    EXPECT_EQ(pm.replicaCount(a), 3);
    EXPECT_EQ(pm.replicaCount(b), 3);

    EXPECT_EQ(pm.replicaOnSocket(a, 0), a);
    EXPECT_EQ(pm.replicaOnSocket(a, 1), b);
    EXPECT_EQ(pm.replicaOnSocket(b, 2), c);
    EXPECT_EQ(pm.replicaOnSocket(a, 3), InvalidPfn);

    pm.unlinkReplica(b);
    EXPECT_EQ(pm.replicaCount(a), 2);
    EXPECT_EQ(pm.replicaCount(b), 1);
    EXPECT_EQ(pm.replicaOnSocket(a, 1), InvalidPfn);

    pm.unlinkReplica(c);
    pm.freePt(a);
    pm.freePt(b);
    pm.freePt(c);
}

TEST_F(PhysicalMemoryTest, ForEachReplicaVisitsWholeRing)
{
    Pfn a = *pm.allocPt(0, 2, 1);
    Pfn b = *pm.allocPt(1, 2, 1);
    pm.linkReplica(a, b);
    std::vector<Pfn> seen;
    pm.forEachReplica(a, [&](Pfn p) { seen.push_back(p); });
    EXPECT_EQ(seen.size(), 2u);
    pm.unlinkReplica(b);
    pm.freePt(a);
    pm.freePt(b);
}

TEST_F(PhysicalMemoryTest, FreePtWhileLinkedPanics)
{
    Pfn a = *pm.allocPt(0, 1, 1);
    Pfn b = *pm.allocPt(1, 1, 1);
    pm.linkReplica(a, b);
    EXPECT_THROW(pm.freePt(a), SimError);
    pm.unlinkReplica(b);
    pm.freePt(a);
    pm.freePt(b);
}

TEST_F(PhysicalMemoryTest, PtCacheServesAllocationsUnderPressure)
{
    pm.setPtCacheTarget(0, 8);
    EXPECT_EQ(pm.ptCacheSize(0), 8u);
    // Exhaust socket 0 entirely.
    while (pm.allocData(0, 1))
        ;
    // Strict allocation fails, but the reserve saves the day (§5.1).
    auto pt = pm.allocPt(0, 1, 1);
    ASSERT_TRUE(pt.has_value());
    EXPECT_EQ(pm.socketOf(*pt), 0);
    EXPECT_EQ(pm.ptCacheSize(0), 7u);
    EXPECT_EQ(pm.stats(0).ptCacheHits, 1u);
}

TEST_F(PhysicalMemoryTest, FreePtRefillsCacheUpToTarget)
{
    pm.setPtCacheTarget(1, 2);
    // Drain the cache by exhausting the socket and allocating PTs.
    while (pm.allocData(1, 1))
        ;
    Pfn a = *pm.allocPt(1, 1, 1);
    Pfn b = *pm.allocPt(1, 1, 1);
    EXPECT_EQ(pm.ptCacheSize(1), 0u);
    pm.freePt(a);
    pm.freePt(b);
    EXPECT_EQ(pm.ptCacheSize(1), 2u);
}

TEST_F(PhysicalMemoryTest, PtCacheShrinkReturnsFrames)
{
    std::uint64_t before = pm.freeFrames(2);
    pm.setPtCacheTarget(2, 16);
    EXPECT_EQ(pm.freeFrames(2), before - 16);
    pm.setPtCacheTarget(2, 0);
    EXPECT_EQ(pm.freeFrames(2), before);
}

TEST_F(PhysicalMemoryTest, PtAllocFailureIsCounted)
{
    while (pm.allocData(3, 1))
        ;
    EXPECT_FALSE(pm.allocPt(3, 1, 1).has_value());
    EXPECT_EQ(pm.stats(3).ptAllocFailures, 1u);
}

TEST_F(PhysicalMemoryTest, MigrateDataMovesSocketAndPreservesOwner)
{
    auto pfn = pm.allocData(0, 5);
    ASSERT_TRUE(pfn.has_value());
    auto fresh = pm.migrateData(*pfn, 3);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(pm.socketOf(*fresh), 3);
    EXPECT_EQ(pm.meta(*fresh).owner, 5);
    EXPECT_TRUE(pm.meta(*pfn).isFree());
}

TEST_F(PhysicalMemoryTest, MigrateLargeDataPage)
{
    auto head = pm.allocDataLarge(0, 5);
    ASSERT_TRUE(head.has_value());
    auto fresh = pm.migrateData(*head, 2);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(pm.socketOf(*fresh), 2);
    EXPECT_EQ(pm.largeOwner(*fresh), 5);
    EXPECT_EQ(pm.largeOwner(*head), -1);
}

TEST_F(PhysicalMemoryTest, FragmentationKillsLargeAllocsUntilDefrag)
{
    Rng rng(3);
    pm.fragment(0, 1.0, rng);
    EXPECT_FALSE(pm.allocDataLarge(0, 1).has_value());
    EXPECT_TRUE(pm.allocData(0, 1).has_value());
    pm.defragment(0);
    EXPECT_TRUE(pm.allocDataLarge(0, 1).has_value());
}

TEST(PhysicalMemoryPins, FullFragmentationMaterializesNoMetadata)
{
    // The bench machine: 4 x 6 GiB, one metadata chunk per 16 MiB.
    numa::TopologyConfig cfg;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 2;
    cfg.memPerSocket = 6ull << 30;
    numa::Topology topo(cfg);
    PhysicalMemory pm(topo);
    Rng rng(11);
    for (SocketId s = 0; s < 4; ++s)
        pm.fragment(s, 1.0, rng);

    for (Pfn pfn = 0; pfn < topo.totalFrames();
         pfn += PhysicalMemory::MetaChunkSize)
        ASSERT_FALSE(pm.metaMaterialized(pfn)) << "chunk of pfn " << pfn;

    // Every 2 MB block holds exactly one pin, and the pins are exactly
    // the allocated frames.
    std::uint64_t pins = 0;
    for (SocketId s = 0; s < 4; ++s) {
        const FrameAllocator &a = pm.allocator(s);
        EXPECT_EQ(a.freeLargeBlocks(), 0u);
        EXPECT_EQ(a.totalFrames() - a.freeFrames(), a.numBlocks());
        for (Pfn pfn = a.firstPfn(); pfn < a.firstPfn() + a.totalFrames();
             ++pfn) {
            ASSERT_EQ(pm.isFragPinned(pfn), a.isAllocated(pfn)) << pfn;
            pins += pm.isFragPinned(pfn);
        }
    }
    EXPECT_EQ(pins, topo.totalFrames() / FramesPerLargePage);
}

TEST_F(PhysicalMemoryTest, ForkMovesPinsWithoutTouchingDonor)
{
    Rng rng(5);
    for (SocketId s = 0; s < 4; ++s)
        pm.fragment(s, 1.0, rng);
    std::vector<std::uint64_t> donor_words;
    for (Pfn pfn = 0; pfn < topo.totalFrames(); pfn += 64)
        donor_words.push_back(pm.pinWord(pfn));

    PhysicalMemory fork(topo);
    fork.cloneStateFrom(pm);
    Pfn pin = 0;
    while (pin < topo.framesPerSocket() && !fork.isFragPinned(pin))
        ++pin;
    ASSERT_TRUE(fork.isFragPinned(pin));
    ASSERT_TRUE(fork.compactReservedPin(pin));
    EXPECT_FALSE(fork.isFragPinned(pin));
    EXPECT_FALSE(fork.allocator(0).isAllocated(pin));

    // The pin moved to another allocated frame of the fork only.
    Pfn moved = InvalidPfn;
    for (Pfn pfn = 0; pfn < topo.totalFrames(); ++pfn)
        if (fork.isFragPinned(pfn) && !pm.isFragPinned(pfn))
            moved = pfn;
    ASSERT_NE(moved, InvalidPfn);
    EXPECT_TRUE(fork.allocator(0).isAllocated(moved));
    EXPECT_FALSE(pm.allocator(0).isAllocated(moved));
    EXPECT_TRUE(std::as_const(fork).meta(moved).isFree());
    for (Pfn pfn = 0; pfn < topo.totalFrames(); pfn += 64)
        ASSERT_EQ(pm.pinWord(pfn), donor_words[pfn / 64]) << pfn;

    // defragment clears every bit and frees every filler, moved or not.
    for (SocketId s = 0; s < 4; ++s)
        fork.defragment(s);
    for (Pfn pfn = 0; pfn < topo.totalFrames(); pfn += 64)
        ASSERT_EQ(fork.pinWord(pfn), 0u) << pfn;
    for (SocketId s = 0; s < 4; ++s) {
        EXPECT_EQ(fork.freeFrames(s), fork.allocator(s).totalFrames());
        EXPECT_EQ(pm.freeFrames(s) + pm.allocator(s).numBlocks(),
                  pm.allocator(s).totalFrames());
    }
    EXPECT_TRUE(pm.isFragPinned(pin));
}

TEST_F(PhysicalMemoryTest, StatsTrackLiveCounts)
{
    auto d = pm.allocData(0, 1);
    auto p = pm.allocPt(0, 2, 1);
    EXPECT_EQ(pm.stats(0).dataPages, 1u);
    EXPECT_EQ(pm.stats(0).ptPages, 1u);
    EXPECT_EQ(pm.stats(0).ptAllocs, 1u);
    pm.freeData(*d);
    pm.freePt(*p);
    EXPECT_EQ(pm.stats(0).dataPages, 0u);
    EXPECT_EQ(pm.stats(0).ptPages, 0u);
}

TEST_F(PhysicalMemoryTest, TableArenaGrowsInChunksAndRecyclesSlots)
{
    TableArenaStats before = pm.tableArenaStats();
    std::vector<Pfn> pts;
    for (int i = 0; i < 100; ++i)
        pts.push_back(*pm.allocPt(0, 1, 1));
    TableArenaStats grown = pm.tableArenaStats();
    EXPECT_EQ(grown.liveSlots, before.liveSlots + 100);
    // 100 tables at 64 tables/chunk forces at least a second chunk.
    EXPECT_GE(grown.chunks, before.chunks + 2);

    // Dirty a table, free it, reallocate on the same socket: the LIFO
    // free list hands the same slot back — recycled and zero-scrubbed.
    pm.table(pts[7])[13] = 0xdeadbeefull;
    pm.freePt(pts[7]);
    Pfn again = *pm.allocPt(0, 1, 1);
    TableArenaStats recycled = pm.tableArenaStats();
    EXPECT_EQ(recycled.slotRecycles, grown.slotRecycles + 1);
    EXPECT_EQ(recycled.liveSlots, grown.liveSlots);
    const std::uint64_t *tbl = pm.table(again);
    for (unsigned i = 0; i < PtEntriesPerPage; ++i)
        ASSERT_EQ(tbl[i], 0u);
}

TEST_F(PhysicalMemoryTest, ClonesAreIsolatedExactCopies)
{
    auto donor = std::make_unique<PhysicalMemory>(topo);
    Pfn data = *donor->allocData(1, 3);
    Pfn pt = *donor->allocPt(2, 2, 5);
    donor->table(pt)[0] = 0x42;

    PhysicalMemory clone(topo);
    clone.cloneStateFrom(*donor);
    // The clone holds the donor's materialized chunks, and only those:
    // one metadata chunk per socket touched (1 and 2), of four.
    EXPECT_EQ(clone.metaChunksMaterialized(),
              donor->metaChunksMaterialized());
    EXPECT_EQ(clone.metaChunksMaterialized(), 2u);
    EXPECT_EQ(clone.tableArenaStats().chunks,
              donor->tableArenaStats().chunks);
    EXPECT_EQ(std::as_const(clone).meta(data).owner, 3);
    EXPECT_EQ(clone.tableView(pt)[0], 0x42u);

    // Writes in the clone never reach the donor...
    clone.meta(data).owner = 9;
    clone.table(pt)[1] = 0x99;
    EXPECT_EQ(std::as_const(*donor).meta(data).owner, 3);
    EXPECT_EQ(donor->tableView(pt)[1], 0u);

    // ...nor the other way round.
    donor->meta(data).owner = 4;
    donor->table(pt)[0] = 0x43;
    EXPECT_EQ(std::as_const(clone).meta(data).owner, 9);
    EXPECT_EQ(clone.tableView(pt)[0], 0x42u);

    // Slot accounting is per instance: a new PT in the clone must not
    // disturb the donor's.
    TableArenaStats before = donor->tableArenaStats();
    Pfn extra = *clone.allocPt(2, 1, 5);
    EXPECT_EQ(donor->tableArenaStats().liveSlots, before.liveSlots);
    clone.freePt(extra);

    // The donor's chunks go back to the pool scrubbed when it dies;
    // the clone's stay as they were.
    donor.reset();
    const PageMeta &m = std::as_const(clone).meta(data);
    EXPECT_EQ(m.owner, 9);
    EXPECT_EQ(m.type, FrameType::Data);
    EXPECT_EQ(clone.tableView(pt)[0], 0x42u);
    EXPECT_EQ(clone.tableView(pt)[1], 0x99u);
}

TEST_F(PhysicalMemoryTest, MetaChunksReturnToSlabPool)
{
    SlabPoolStats before = slabPoolStats();
    {
        PhysicalMemory other(topo);
        ASSERT_TRUE(other.allocData(0, 1).has_value());
        ASSERT_TRUE(other.allocData(3, 1).has_value());
    }
    EXPECT_GE(slabPoolStats().metaRecycles, before.metaRecycles + 2);
}

TEST_F(PhysicalMemoryTest, RetiredTableChunksReturnToSlabPool)
{
    SlabPoolStats before = slabPoolStats();
    {
        PhysicalMemory other(topo);
        ASSERT_TRUE(other.allocPt(0, 1, 1).has_value());
    }
    // Destruction returns the arena's chunks to the process-wide pool.
    SlabPoolStats after = slabPoolStats();
    EXPECT_GT(after.tableRecycles, before.tableRecycles);

    // A fresh instance is served from the pooled free list: no new
    // slab is minted for its first table chunk.
    {
        PhysicalMemory other(topo);
        ASSERT_TRUE(other.allocPt(0, 1, 1).has_value());
        EXPECT_EQ(slabPoolStats().tableSlabs, after.tableSlabs);
    }
}

} // namespace
} // namespace mitosim::mem
