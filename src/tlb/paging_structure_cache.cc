#include "paging_structure_cache.h"

#include "src/base/logging.h"

namespace mitosim::tlb
{

void
PagingStructureCache::Level::resize(unsigned n)
{
    vaTags.assign(n, ~0ull);
    cr3s.assign(n, InvalidPfn);
    asids.assign(n, 0);
    tablePfns.assign(n, InvalidPfn);
    lrus.assign(n, 0);
}

void
PagingStructureCache::Level::invalidate(VirtAddr va)
{
    std::uint64_t tag = va >> tagShift;
    for (std::size_t i = 0; i < vaTags.size(); ++i) {
        if (vaTags[i] == tag)
            cr3s[i] = InvalidPfn;
    }
}

void
PagingStructureCache::Level::flush()
{
    for (auto &c : cr3s)
        c = InvalidPfn;
}

void
PagingStructureCache::Level::flushAsid(Asid asid)
{
    for (std::size_t i = 0; i < cr3s.size(); ++i) {
        if (asids[i] == asid)
            cr3s[i] = InvalidPfn;
    }
}

PagingStructureCache::PagingStructureCache(const PwcConfig &config)
{
    MITOSIM_ASSERT(config.pml4eEntries > 0 && config.pdpteEntries > 0 &&
                   config.pdeEntries > 0);
    pml4e.resize(config.pml4eEntries);
    pml4e.tagShift = PageShift + 3 * PtIndexBits; // 39
    pdpte.resize(config.pdpteEntries);
    pdpte.tagShift = PageShift + 2 * PtIndexBits; // 30
    pde.resize(config.pdeEntries);
    pde.tagShift = PageShift + PtIndexBits; // 21
}

void
PagingStructureCache::invalidate(VirtAddr va)
{
    clearMemo();
    pml4e.invalidate(va);
    pdpte.invalidate(va);
    pde.invalidate(va);
}

void
PagingStructureCache::flushAll()
{
    clearMemo();
    pml4e.flush();
    pdpte.flush();
    pde.flush();
}

void
PagingStructureCache::flushAsid(Asid asid)
{
    clearMemo();
    pml4e.flushAsid(asid);
    pdpte.flushAsid(asid);
    pde.flushAsid(asid);
}

void
PagingStructureCache::forEachEntry(
    const std::function<void(Pfn, Asid, int, Pfn)> &fn) const
{
    pml4e.forEach(
        [&](Pfn cr3, Asid asid, Pfn table) { fn(cr3, asid, 3, table); });
    pdpte.forEach(
        [&](Pfn cr3, Asid asid, Pfn table) { fn(cr3, asid, 2, table); });
    pde.forEach(
        [&](Pfn cr3, Asid asid, Pfn table) { fn(cr3, asid, 1, table); });
}

} // namespace mitosim::tlb
