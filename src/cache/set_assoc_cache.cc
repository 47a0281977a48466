#include "set_assoc_cache.h"

#include <algorithm>

namespace mitosim::cache
{

namespace
{

std::uint64_t
roundDownPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

} // namespace

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes, unsigned ways)
    : numWays(ways)
{
    if (ways == 0)
        fatal("cache associativity must be nonzero");
    std::uint64_t total_lines = capacity_bytes / LineSize;
    if (total_lines < ways)
        fatal("cache capacity smaller than one set");
    sets = roundDownPow2(total_lines / ways);
    tags.assign(sets * ways, ~0ull);
    lrus.assign(sets * ways, 0);
    memoMru_.assign(sets, ~0ull);
}

void
SetAssocCache::invalidateLine(PhysAddr pa)
{
    std::uint64_t line = lineAddr(pa);
    if (memoMru_[setOf(line)] == line)
        memoMru_[setOf(line)] = ~0ull;
    std::size_t base = setOf(line) * numWays;
    for (unsigned w = 0; w < numWays; ++w) {
        if (tags[base + w] == line) {
            tags[base + w] = ~0ull;
            return;
        }
    }
}

void
SetAssocCache::invalidateFrame(Pfn pfn)
{
    std::uint64_t first = pfnToAddr(pfn) >> LineShift;
    for (std::uint64_t line = first; line < first + (PageSize / LineSize);
         ++line) {
        if (memoMru_[setOf(line)] == line)
            memoMru_[setOf(line)] = ~0ull;
    }
    for (std::uint64_t line = first; line < first + (PageSize / LineSize);
         ++line) {
        std::size_t base = setOf(line) * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == line) {
                tags[base + w] = ~0ull;
                break;
            }
        }
    }
}

void
SetAssocCache::flush()
{
    std::fill(tags.begin(), tags.end(), ~0ull);
    std::fill(memoMru_.begin(), memoMru_.end(), ~0ull);
}

} // namespace mitosim::cache
