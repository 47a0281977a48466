/**
 * @file
 * Unit tests for pt::Pte bit layout and pt::RootSet semantics.
 */

#include <gtest/gtest.h>

#include "src/pt/pte.h"
#include "src/pt/root_set.h"

namespace mitosim::pt
{
namespace
{

TEST(Pte, DefaultIsNotPresent)
{
    Pte p;
    EXPECT_FALSE(p.present());
    EXPECT_EQ(p.raw(), 0u);
}

TEST(Pte, MakeEncodesPfnAndFlags)
{
    Pte p = Pte::make(0x1234, PtePresent | PteWrite);
    EXPECT_TRUE(p.present());
    EXPECT_TRUE(p.writable());
    EXPECT_FALSE(p.huge());
    EXPECT_EQ(p.pfn(), 0x1234u);
}

TEST(Pte, PfnFieldIsolatedFromFlags)
{
    // A huge pfn must not bleed into flag bits and vice versa.
    Pfn big = 0xffffffffffull; // 40 bits
    Pte p = Pte::make(big, PtePresent | PteAccessed | PteDirty);
    EXPECT_EQ(p.pfn(), big);
    EXPECT_TRUE(p.accessed());
    EXPECT_TRUE(p.dirty());
    EXPECT_TRUE(p.present());
}

TEST(Pte, WithFlagsSetsAndClears)
{
    Pte p = Pte::make(7, PtePresent);
    Pte q = p.withFlags(PteAccessed | PteDirty);
    EXPECT_TRUE(q.accessed());
    EXPECT_TRUE(q.dirty());
    Pte r = q.withFlags(0, PteDirty);
    EXPECT_TRUE(r.accessed());
    EXPECT_FALSE(r.dirty());
    EXPECT_EQ(r.pfn(), 7u);
}

TEST(Pte, WithPfnPreservesFlags)
{
    Pte p = Pte::make(7, PtePresent | PteWrite | PteAccessed);
    Pte q = p.withPfn(99);
    EXPECT_EQ(q.pfn(), 99u);
    EXPECT_TRUE(q.present());
    EXPECT_TRUE(q.writable());
    EXPECT_TRUE(q.accessed());
}

TEST(Pte, HugeBitMarks2MLeaf)
{
    Pte p = Pte::make(512, PtePresent | PteHuge);
    EXPECT_TRUE(p.huge());
}

TEST(Pte, NumaHintBit)
{
    Pte p = Pte::make(5, PtePresent | PteNumaHint);
    EXPECT_TRUE(p.numaHint());
    EXPECT_FALSE(p.withFlags(0, PteNumaHint).numaHint());
}

TEST(Pte, AdMaskCoversExactlyAccessedDirty)
{
    EXPECT_EQ(PteAdMask, (PteAccessed | PteDirty));
}

TEST(RootSet, DefaultIsInvalid)
{
    RootSet r;
    EXPECT_EQ(r.primaryRoot, InvalidPfn);
    EXPECT_FALSE(r.replicated());
    EXPECT_EQ(r.rootFor(0), InvalidPfn);
}

TEST(RootSet, ResetToPrimaryFillsAllSlots)
{
    RootSet r;
    r.primaryRoot = 77;
    r.resetToPrimary();
    for (SocketId s = 0; s < MaxSockets; ++s)
        EXPECT_EQ(r.rootFor(s), 77u);
    EXPECT_FALSE(r.replicated());
}

TEST(RootSet, RootForFallsBackToPrimary)
{
    RootSet r;
    r.primaryRoot = 10;
    r.resetToPrimary();
    r.perSocketRoot[2] = 20;
    EXPECT_EQ(r.rootFor(2), 20u);
    EXPECT_EQ(r.rootFor(1), 10u);
    // Out-of-range sockets use the primary.
    EXPECT_EQ(r.rootFor(MaxSockets + 3), 10u);
}

TEST(RootSet, ReplicatedReflectsMask)
{
    RootSet r;
    r.replicaMask = SocketMask::all(2);
    EXPECT_TRUE(r.replicated());
}

} // namespace
} // namespace mitosim::pt
