/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/cache/lru_array.h"
#include "src/cache/set_assoc_cache.h"

namespace mitosim::cache
{
namespace
{

TEST(Cache, MissThenHitAfterInsert)
{
    SetAssocCache c(64 * 1024, 8);
    EXPECT_FALSE(c.lookup(0x1000));
    EXPECT_FALSE(c.probeInsert(0x1000)); // miss, filled
    EXPECT_TRUE(c.lookup(0x1000));
    EXPECT_TRUE(c.probeInsert(0x1000));
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    SetAssocCache c(64 * 1024, 8);
    c.probeInsert(0x1000);
    EXPECT_TRUE(c.lookup(0x103f)); // same 64B line
    EXPECT_FALSE(c.lookup(0x1040)); // next line
}

TEST(Cache, CapacityAndGeometry)
{
    SetAssocCache c(1 << 20, 16);
    EXPECT_EQ(c.associativity(), 16u);
    EXPECT_EQ(c.numSets() * 16 * LineSize, 1u << 20);
}

TEST(Cache, EvictionReportsVictim)
{
    // Single-set cache: 4 ways of 64B = 256B. The fifth fill evicts
    // the LRU line (address 0) and nothing else.
    SetAssocCache c(256, 4);
    EXPECT_EQ(c.numSets(), 1u);
    for (PhysAddr a = 0; a < 4 * LineSize; a += LineSize)
        EXPECT_FALSE(c.probeInsert(a));
    EXPECT_FALSE(c.probeInsert(4 * LineSize));
    EXPECT_FALSE(c.lookup(0));
    for (PhysAddr a = LineSize; a <= 4 * LineSize; a += LineSize)
        EXPECT_TRUE(c.lookup(a)) << a;
}

TEST(Cache, LruRefreshOnHit)
{
    SetAssocCache c(256, 4);
    for (PhysAddr a = 0; a < 4 * LineSize; a += LineSize)
        c.probeInsert(a);
    c.lookup(0); // refresh line 0
    c.probeInsert(4 * LineSize);
    EXPECT_TRUE(c.lookup(0));       // survived
    EXPECT_FALSE(c.lookup(LineSize)); // line 1 evicted instead
}

TEST(Cache, InsertExistingIsNoop)
{
    SetAssocCache c(256, 4);
    for (PhysAddr a = 0; a < 4 * LineSize; a += LineSize)
        c.probeInsert(a);
    EXPECT_TRUE(c.probeInsert(0x80)); // resident: a hit, no fill
    for (PhysAddr a = 0; a < 4 * LineSize; a += LineSize)
        EXPECT_TRUE(c.lookup(a)) << a; // nothing was evicted
}

/**
 * SetAssocCache never invalidates one line (it only flushes), but the
 * LruArray it stores lines in can, as the TLB and PWC do. These two pin
 * the array's hole handling in the cache's own shape: one line address
 * per slot, no qualifier or payload.
 */
using Lines = LruArray<Nothing, Nothing>;

TEST(Cache, ProbeInsertFindsLineBehindInvalidatedHole)
{
    // An invalidation leaves a free way before a still-resident line:
    // the insert must keep scanning past the hole and hit, rather than
    // fill the hole with a second copy of the line.
    Lines c(4, 4); // one set
    for (std::uint64_t l = 0; l < 4; ++l)
        c.insert(l, {}, {}); // way w holds line w
    c.invalidate(0);         // hole in way 0
    EXPECT_TRUE(c.insert(2, {}, {}));
    c.invalidate(2);
    EXPECT_EQ(c.lookup(2, {}), nullptr); // no duplicate left behind
}

TEST(Cache, InvalidationHoleIsRefilledBeforeEviction)
{
    Lines c(4, 4); // one set
    for (std::uint64_t l = 0; l < 4; ++l)
        c.insert(l, {}, {});                // way w holds line w
    c.invalidate(1);                        // hole in way 1
    ASSERT_NE(c.lookup(0, {}), nullptr);    // line 0 now newest
    EXPECT_FALSE(c.insert(4, {}, {}));      // fills the hole
    // Probed oldest first, so the touches keep the LRU order.
    for (std::uint64_t l : {2, 3, 0, 4})
        EXPECT_NE(c.lookup(l, {}), nullptr) << l;
    // No hole left: the least recently used survivor (line 2) goes.
    EXPECT_FALSE(c.insert(5, {}, {}));
    EXPECT_EQ(c.lookup(2, {}), nullptr);
    for (std::uint64_t l : {0, 3, 4, 5})
        EXPECT_NE(c.lookup(l, {}), nullptr) << l;
}

TEST(Cache, FlushEmptiesEverything)
{
    SetAssocCache c(64 * 1024, 8);
    for (PhysAddr a = 0; a < 128 * LineSize; a += LineSize)
        c.probeInsert(a);
    c.flush();
    EXPECT_FALSE(c.lookup(0));
}

TEST(Cache, DistinctSetsDontInterfere)
{
    SetAssocCache c(512, 4); // 2 sets
    // Fill set 0 far beyond capacity.
    for (int i = 0; i < 64; ++i)
        c.probeInsert(static_cast<PhysAddr>(i) * 2 * LineSize);
    c.probeInsert(LineSize); // set 1
    EXPECT_TRUE(c.lookup(LineSize));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache(64, 0), SimError);
    EXPECT_THROW(SetAssocCache(64, 16), SimError); // smaller than one set
}

} // namespace
} // namespace mitosim::cache
