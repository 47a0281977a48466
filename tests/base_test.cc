/**
 * @file
 * Unit tests for src/base: types/address math, SocketMask, Rng,
 * logging.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/socket_mask.h"
#include "src/base/types.h"

namespace mitosim
{
namespace
{

TEST(Types, PageConstants)
{
    EXPECT_EQ(PageSize, 4096u);
    EXPECT_EQ(LargePageSize, 2u * 1024 * 1024);
    EXPECT_EQ(FramesPerLargePage, 512u);
    EXPECT_EQ(PtEntriesPerPage, 512u);
}

TEST(Types, PtIndexDecomposition)
{
    // Construct a VA from known indices and recover them.
    VirtAddr va = (std::uint64_t{5} << 39) | (std::uint64_t{17} << 30) |
                  (std::uint64_t{301} << 21) | (std::uint64_t{511} << 12) |
                  0xabc;
    EXPECT_EQ(ptIndex(va, PtLevel::L4), 5u);
    EXPECT_EQ(ptIndex(va, PtLevel::L3), 17u);
    EXPECT_EQ(ptIndex(va, PtLevel::L2), 301u);
    EXPECT_EQ(ptIndex(va, PtLevel::L1), 511u);
}

TEST(Types, BytesPerEntry)
{
    EXPECT_EQ(bytesPerEntry(PtLevel::L1), 4096u);
    EXPECT_EQ(bytesPerEntry(PtLevel::L2), 2u * 1024 * 1024);
    EXPECT_EQ(bytesPerEntry(PtLevel::L3), 1ull << 30);
    EXPECT_EQ(bytesPerEntry(PtLevel::L4), 512ull << 30);
}

TEST(Types, AlignHelpers)
{
    EXPECT_EQ(alignDown(0x1fffull, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1001ull, 0x1000), 0x2000u);
    EXPECT_EQ(alignUp(0x1000ull, 0x1000), 0x1000u);
    EXPECT_EQ(alignDown(0ull, 0x1000), 0u);
}

TEST(Types, PfnAddrRoundTrip)
{
    Pfn pfn = 123456;
    EXPECT_EQ(addrToPfn(pfnToAddr(pfn)), pfn);
    EXPECT_EQ(pfnToAddr(pfn) & (PageSize - 1), 0u);
}

TEST(Types, UnitLiterals)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(2_MiB, LargePageSize);
    EXPECT_EQ(1_GiB, 1ull << 30);
}

TEST(SocketMask, AllAndSingle)
{
    auto m = SocketMask::all(4);
    EXPECT_EQ(m.count(), 4);
    for (SocketId s = 0; s < 4; ++s)
        EXPECT_TRUE(m.contains(s));
    EXPECT_FALSE(m.contains(4));

    auto one = SocketMask::single(2);
    EXPECT_EQ(one.count(), 1);
    EXPECT_TRUE(one.contains(2));
    EXPECT_FALSE(one.contains(0));
}

TEST(SocketMask, EmptyBehaviour)
{
    SocketMask m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.count(), 0);
    EXPECT_EQ(m.first(), InvalidSocket);
}

TEST(SocketMask, SetClearIterate)
{
    SocketMask m;
    m.set(1);
    m.set(3);
    m.set(7);
    EXPECT_EQ(m.first(), 1);
    EXPECT_EQ(m.nextAfter(1), 3);
    EXPECT_EQ(m.nextAfter(3), 7);
    EXPECT_EQ(m.nextAfter(7), InvalidSocket);
    m.clear(3);
    EXPECT_EQ(m.nextAfter(1), 7);
    EXPECT_EQ(m.count(), 2);
}

TEST(SocketMask, Operators)
{
    auto a = SocketMask::single(0) | SocketMask::single(2);
    auto b = SocketMask::all(2);
    auto c = a & b;
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(2));
    EXPECT_EQ(a.str(), "{0,2}");
}

TEST(SocketMask, IterationOrderIsAscending)
{
    auto m = SocketMask::all(6);
    SocketId prev = -1;
    int seen = 0;
    for (SocketId s = m.first(); s != InvalidSocket; s = m.nextAfter(s)) {
        EXPECT_GT(s, prev);
        prev = s;
        ++seen;
    }
    EXPECT_EQ(seen, 6);
}

TEST(Rng, Deterministic)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(7);
    Rng b(8);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(37), 37u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(2);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.range(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(4);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SkewedPrefersHotSet)
{
    Rng rng(5);
    std::uint64_t n = 1000;
    std::uint64_t hot_hits = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        if (rng.skewed(n, 0.2, 0.8) < n / 5)
            ++hot_hits;
    }
    // 80% go straight to the hot 20%, plus the uniform tail's 20% * 20%.
    double frac = static_cast<double>(hot_hits) / draws;
    EXPECT_GT(frac, 0.75);
    EXPECT_LT(frac, 0.92);
}

TEST(Logging, PanicThrowsSimError)
{
    try {
        panic("boom %d", 42);
        FAIL() << "panic returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "panic");
        EXPECT_NE(e.message().find("boom 42"), std::string::npos);
    }
}

TEST(Logging, FatalThrowsSimError)
{
    EXPECT_THROW(fatal("bad config"), SimError);
}

TEST(Logging, FormatBuildsString)
{
    EXPECT_EQ(format("x=%d y=%s", 3, "z"), "x=3 y=z");
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(MITOSIM_ASSERT(1 == 2, "math broke"), SimError);
    EXPECT_NO_THROW(MITOSIM_ASSERT(1 == 1));
}

} // namespace
} // namespace mitosim
