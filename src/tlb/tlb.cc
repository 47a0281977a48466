#include "tlb.h"

#include <algorithm>

#include "src/base/logging.h"

namespace mitosim::tlb
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

TwoLevelTlb::Array::Array(unsigned num_entries, unsigned ways)
    : numWays(ways)
{
    MITOSIM_ASSERT(ways > 0 && num_entries >= ways);
    sets = roundDownPow2(num_entries / ways);
    tags.assign(sets * ways, InvalidTag);
    asids.assign(sets * ways, 0);
    entries.assign(sets * ways, TlbEntry{});
    lrus.assign(sets * ways, 0);
}

void
TwoLevelTlb::Array::invalidate(std::uint64_t tag)
{
    // Shootdowns broadcast: the same page may be cached under several
    // ASIDs (one per tenant that touched it before a remap).
    std::size_t base = static_cast<std::size_t>(tag & (sets - 1)) * numWays;
    for (unsigned w = 0; w < numWays; ++w) {
        if (tags[base + w] == tag)
            tags[base + w] = InvalidTag;
    }
}

void
TwoLevelTlb::Array::flush()
{
    std::fill(tags.begin(), tags.end(), InvalidTag);
}

void
TwoLevelTlb::Array::flushAsid(Asid asid)
{
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (asids[i] == asid)
            tags[i] = InvalidTag;
    }
}

TwoLevelTlb::TwoLevelTlb(const TlbConfig &config)
    : cfg(config),
      l1Small(cfg.l1Entries4K, cfg.l1Ways),
      l1Large(cfg.l1Entries2M, cfg.l1Ways),
      l2(cfg.l2Entries, cfg.l2Ways)
{
}

void
TwoLevelTlb::invalidatePage(VirtAddr va)
{
    l1Small.invalidate(tag4K(va));
    l1Large.invalidate(tag2M(va));
    l2.invalidate(tag4K(va));
    l2.invalidate(tag2M(va) | LargeTagBit);
    clearMemo();
}

void
TwoLevelTlb::flushAll()
{
    l1Small.flush();
    l1Large.flush();
    l2.flush();
    clearMemo();
}

void
TwoLevelTlb::flushAsid(Asid asid)
{
    l1Small.flushAsid(asid);
    l1Large.flushAsid(asid);
    l2.flushAsid(asid);
    clearMemo();
}

void
TwoLevelTlb::forEachEntry(
    const std::function<void(VirtAddr, Asid, const TlbEntry &)> &fn) const
{
    // The VA is recoverable from the tag: 2 MB entries tag at 2 MB
    // granularity (with LargeTagBit mixed in for the unified L2).
    auto visit = [&](std::uint64_t tag, Asid asid,
                     const TlbEntry &entry) {
        VirtAddr va = entry.size == PageSizeKind::Large2M
                          ? ((tag & ~LargeTagBit) << LargePageShift)
                          : (tag << PageShift);
        fn(va, asid, entry);
    };
    l1Small.forEach(visit);
    l1Large.forEach(visit);
    l2.forEach(visit);
}

} // namespace mitosim::tlb
