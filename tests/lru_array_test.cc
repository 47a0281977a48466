/**
 * @file
 * Differential test of cache::LruArray's replacement against a
 * reference model of the rule it implements, kept here in its plainest
 * form: every slot carries a stamp from a 64-bit clock, bumped on each
 * hit and fill; an insert updates a resident key in place, else fills
 * the first free way, else evicts the lowest-stamped way. Seeded random
 * mixes of insert, lookup, invalidate, invalidateIf and flush run on
 * both; after every op the return values and the slot-ordered contents
 * (so the resident keys and where each insert landed) must agree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/base/logging.h"
#include "src/cache/lru_array.h"

namespace mitosim::cache
{
namespace
{

template <typename Qual, typename Payload>
class StampModel
{
  public:
    StampModel(std::uint64_t entries, unsigned ways)
        : sets(std::bit_floor(entries / ways)), numWays(ways),
          tags(sets * ways, Free), quals(sets * ways),
          payloads(sets * ways), stamps(sets * ways, 0)
    {
    }

    const Payload *
    lookup(std::uint64_t tag, const Qual &qual)
    {
        std::size_t base = (tag & (sets - 1)) * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == tag && quals[base + w] == qual) {
                stamps[base + w] = ++clock;
                return &payloads[base + w];
            }
        }
        return nullptr;
    }

    bool
    insert(std::uint64_t tag, const Qual &qual, const Payload &payload)
    {
        std::size_t base = (tag & (sets - 1)) * numWays;
        std::size_t victim = Free;
        for (unsigned w = 0; w < numWays; ++w) {
            std::size_t i = base + w;
            if (tags[i] == tag && quals[i] == qual) {
                payloads[i] = payload;
                stamps[i] = ++clock;
                return true;
            }
        }
        for (unsigned w = 0; w < numWays && victim == Free; ++w) {
            if (tags[base + w] == Free)
                victim = base + w;
        }
        if (victim == Free) {
            victim = base;
            for (unsigned w = 1; w < numWays; ++w) {
                if (stamps[base + w] < stamps[victim])
                    victim = base + w;
            }
        }
        tags[victim] = tag;
        quals[victim] = qual;
        payloads[victim] = payload;
        stamps[victim] = ++clock;
        return false;
    }

    void
    invalidate(std::uint64_t tag)
    {
        std::size_t base = (tag & (sets - 1)) * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == tag)
                tags[base + w] = Free;
        }
    }

    template <typename Pred>
    void
    invalidateIf(Pred &&pred)
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] != Free && pred(quals[i]))
                tags[i] = Free;
        }
    }

    void flush() { tags.assign(tags.size(), Free); }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] != Free)
                fn(tags[i], quals[i], payloads[i]);
        }
    }

  private:
    static constexpr std::uint64_t Free = ~0ull;
    std::uint64_t sets;
    unsigned numWays;
    std::vector<std::uint64_t> tags;
    std::vector<Qual> quals;
    std::vector<Payload> payloads;
    std::vector<std::uint64_t> stamps;
    std::uint64_t clock = 0;
};

/**
 * Valid slots in slot order as (tag, qual, payload): equal iff the same
 * keys sit in the same order.
 */
template <typename Qual, typename Array>
std::vector<std::tuple<std::uint64_t, Qual, unsigned>>
contents(const Array &a)
{
    std::vector<std::tuple<std::uint64_t, Qual, unsigned>> out;
    a.forEach([&](std::uint64_t tag, const Qual &qual, const auto &payload) {
        unsigned p = 0;
        if constexpr (!std::is_empty_v<std::decay_t<decltype(payload)>>)
            p = payload;
        out.emplace_back(tag, qual, p);
    });
    return out;
}

struct Shape
{
    std::uint64_t entries;
    unsigned ways;
    unsigned ops;
};

/**
 * Run @p shape.ops seeded random ops on an LruArray<Qual, Payload> and
 * the stamp model. Keys fall in at most 16 sets, each with about
 * 2 * ways + 1 tags per qualifier, so every hot set fills and evicts.
 */
template <typename Qual, typename Payload>
void
runDifferential(const Shape &shape, std::uint32_t seed)
{
    LruArray<Qual, Payload> real(shape.entries, shape.ways);
    StampModel<Qual, Payload> model(shape.entries, shape.ways);
    std::uint64_t sets = real.numSets();
    std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 16);
    std::mt19937_64 rng(seed);
    auto pick_tag = [&] {
        std::uint64_t set = (rng() % hot_sets) * (sets / hot_sets);
        return set + sets * (rng() % (2 * shape.ways + 1));
    };
    auto pick_qual = [&] {
        if constexpr (std::is_empty_v<Qual>)
            return Qual{};
        else
            return static_cast<Qual>(rng() % 3);
    };
    auto make_payload = [](unsigned i) {
        if constexpr (std::is_empty_v<Payload>)
            return Payload{};
        else
            return static_cast<Payload>(i);
    };

    for (unsigned i = 0; i < shape.ops; ++i) {
        unsigned r = static_cast<unsigned>(rng() % 1000);
        if (r < 450) {
            std::uint64_t tag = pick_tag();
            Qual q = pick_qual();
            ASSERT_EQ(real.insert(tag, q, make_payload(i)),
                      model.insert(tag, q, make_payload(i)))
                << "insert, op " << i;
        } else if (r < 800) {
            std::uint64_t tag = pick_tag();
            Qual q = pick_qual();
            const Payload *got = real.lookup(tag, q);
            const Payload *want = model.lookup(tag, q);
            ASSERT_EQ(got == nullptr, want == nullptr) << "lookup, op " << i;
            if (got) {
                ASSERT_TRUE(*got == *want) << "lookup payload, op " << i;
            }
        } else if (r < 985) {
            std::uint64_t tag = pick_tag();
            real.invalidate(tag);
            model.invalidate(tag);
        } else if (r < 997) {
            Qual q = pick_qual();
            auto pred = [&](const Qual &tagged) { return tagged == q; };
            real.invalidateIf(pred);
            model.invalidateIf(pred);
        } else {
            real.flush();
            model.flush();
        }
        ASSERT_TRUE(contents<Qual>(real) == contents<Qual>(model))
            << "contents diverge after op " << i << " (r=" << r << ")";
    }
}

constexpr Shape Shapes[] = {
    {1, 1, 4000},         // 1 set x 1 way
    {4, 4, 8000},         // 1 set x 4 ways
    {128, 8, 20000},      // 16 sets x 8 ways
    {16384, 16, 3000},    // 1024 sets x 16 ways
    {32, 32, 20000},      // fully associative, the pde level
    {64, 64, 20000},      // the widest set a free mask holds
    {24, 3, 20000},       // 8 sets x 3 ways
    {100, 6, 20000},      // 16 sets x 6 ways (100 / 6 rounds down)
};

TEST(LruArray, MatchesStampModelQualifiedTlbLike)
{
    std::uint32_t seed = 42;
    for (const Shape &s : Shapes) {
        SCOPED_TRACE(testing::Message() << s.entries << " entries, "
                                        << s.ways << " ways");
        runDifferential<std::uint16_t, unsigned>(s, seed++);
        if (HasFatalFailure())
            return;
    }
}

TEST(LruArray, MatchesStampModelCacheLike)
{
    std::uint32_t seed = 7;
    for (const Shape &s : Shapes) {
        SCOPED_TRACE(testing::Message() << s.entries << " entries, "
                                        << s.ways << " ways");
        runDifferential<Nothing, Nothing>(s, seed++);
        if (HasFatalFailure())
            return;
    }
}

TEST(LruArray, InvalidateDropsATagUnderEveryQualifier)
{
    // One 16-way set, so fingerprint matches span both words. Tag 7
    // sits under four ASID-like qualifiers in ways 1, 6, 9 and 15;
    // other tags fill the rest.
    LruArray<std::uint16_t, unsigned> arr(16, 16);
    const std::set<unsigned> shared = {1, 6, 9, 15};
    std::uint16_t q = 0;
    for (unsigned w = 0; w < 16; ++w) {
        std::uint64_t tag = shared.count(w) ? 7 : 100 + w;
        ASSERT_FALSE(arr.insert(tag, q++, w));
    }
    arr.invalidate(7);
    for (std::uint16_t qual = 0; qual < 16; ++qual) {
        bool was_shared = shared.count(qual);
        EXPECT_EQ(arr.lookup(7, qual), nullptr) << "qual " << qual;
        const unsigned *other = arr.lookup(100 + qual, qual);
        EXPECT_EQ(other != nullptr, !was_shared) << "qual " << qual;
    }
    // Each freed way is free again: they refill lowest first, before
    // any eviction.
    for (unsigned w : shared) {
        EXPECT_FALSE(arr.insert(200 + w, 0, w));
        unsigned slot = 0, found = 16;
        arr.forEach([&](std::uint64_t tag, std::uint16_t, unsigned) {
            if (tag == 200 + w)
                found = slot;
            ++slot;
        });
        EXPECT_EQ(found, w);
    }
    unsigned resident = 0;
    arr.forEach([&](std::uint64_t, std::uint16_t, unsigned) { ++resident; });
    EXPECT_EQ(resident, 16u);
}

TEST(LruArray, HeadFirstComparesTheQualifier)
{
    // One 4-way set. Tag 5 sits under qualifiers 1 and 2, with (5, 2)
    // at the head: the head check must not serve the other qualifier.
    LruArray<std::uint16_t, unsigned> arr(4, 4);
    ASSERT_FALSE(arr.insert(5, 1, 10));
    ASSERT_FALSE(arr.insert(5, 2, 20));
    EXPECT_EQ(arr.lookup(5, 3), nullptr);
    const unsigned *p = arr.lookup(5, 1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 10u);
    // (5, 1) is the head now; an insert under qualifier 2 updates its
    // own slot, not the head's.
    EXPECT_TRUE(arr.insert(5, 2, 21));
    p = arr.lookup(5, 1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 10u);
    p = arr.lookup(5, 2);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 21u);
}

/**
 * The drop tests leave tag 1 under qualifier 0 (payload 10) behind the
 * dropped head, so a head check that trusts any valid head with a
 * matching qualifier serves it for a dropped or absent key.
 */
LruArray<std::uint16_t, unsigned>
oneSetHolding1()
{
    LruArray<std::uint16_t, unsigned> arr(4, 4);
    EXPECT_FALSE(arr.insert(1, 0, 10));
    return arr;
}

void
expect1Resident(LruArray<std::uint16_t, unsigned> &arr)
{
    const unsigned *p = arr.lookup(1, 0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 10u);
}

TEST(LruArray, HeadFirstMissesAHeadDroppedByInvalidate)
{
    auto arr = oneSetHolding1();
    ASSERT_FALSE(arr.insert(2, 0, 20));
    arr.invalidate(2);
    EXPECT_EQ(arr.lookup(2, 0), nullptr);
    expect1Resident(arr);
}

TEST(LruArray, HeadFirstMissesAHeadDroppedByInvalidateIf)
{
    auto arr = oneSetHolding1();
    ASSERT_FALSE(arr.insert(2, 1, 20));
    arr.invalidateIf([](std::uint16_t q) { return q == 1; });
    EXPECT_EQ(arr.lookup(2, 1), nullptr);
    EXPECT_EQ(arr.lookup(2, 0), nullptr);
    expect1Resident(arr);
}

TEST(LruArray, HeadFirstMissesAHeadDroppedByFlush)
{
    auto arr = oneSetHolding1();
    arr.flush();
    EXPECT_EQ(arr.lookup(1, 0), nullptr);
    ASSERT_FALSE(arr.insert(2, 0, 20));
    EXPECT_EQ(arr.lookup(1, 0), nullptr);
    const unsigned *p = arr.lookup(2, 0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 20u);
}

TEST(LruArray, RejectsMoreWaysThanTheFreeMaskHolds)
{
    EXPECT_NO_THROW((LruArray<Nothing, Nothing>(64, 64)));
    EXPECT_THROW((LruArray<Nothing, Nothing>(65, 65)), SimError);
    EXPECT_THROW((LruArray<Nothing, Nothing>(130, 65)), SimError);
}

} // namespace
} // namespace mitosim::cache
