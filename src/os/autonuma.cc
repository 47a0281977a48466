#include <vector>

#include "src/base/logging.h"
#include "src/os/kernel.h"
#include "src/pvops/costs.h"

namespace mitosim::os
{

void
AutoNuma::scan(Process &proc, double fraction, Rng &rng)
{
    // Collect candidate leaves first; placing hints mutates leaf values
    // (never structure, but keep the phases separate for clarity).
    //
    // The walk skips subtrees no VMA overlaps, as Linux's
    // task_numa_work walks VMAs rather than the whole tree. Every
    // present leaf lies inside a VMA (vmcheck's VMA<->PTE check), so a
    // skipped subtree holds no leaf, the pruned walk visits the same
    // leaves in the same order, and each draw pairs with the same leaf
    // as in a full walk. The draws come from a local copy of @p rng and
    // the count is kept locally, so the loop need not store either to
    // memory the sampled vector might alias.
    Rng draws = rng;
    std::uint64_t scanned = 0;
    std::vector<VirtAddr> sampled;
    k.ptOps().forEachLeaf(
        proc.roots(),
        [&](VirtAddr va, pt::PteLoc, pt::Pte pte, PageSizeKind) {
            ++scanned;
            if (!pte.numaHint() && draws.chance(fraction))
                sampled.push_back(va);
        },
        [&proc](VirtAddr lo, VirtAddr hi) {
            return proc.overlapsRange(lo, hi);
        });
    rng = draws;
    stats_.pagesScanned += scanned;

    pvops::KernelCost cost;
    for (VirtAddr va : sampled) {
        k.ptOps().protectRange(proc.roots(), va, va + PageSize,
                               pt::PteNumaHint, 0, {}, &cost);
        k.shootdown(proc, va, &cost);
        ++stats_.hintsPlaced;
    }
}

Cycles
AutoNuma::onHintFault(Process &proc, CoreId core, VirtAddr va)
{
    ++stats_.hintFaults;
    pvops::KernelCost cost;
    cost.charge(pvops::FaultFixedCost);

    auto &ops = k.ptOps();
    pt::WalkResult res = ops.walk(proc.roots(), va);
    if (!res.mapped) {
        // Raced with an unmap; nothing to do.
        return cost.cycles;
    }

    // Clear the hint so the retry proceeds.
    VirtAddr page = alignDown(va, PageSize);
    ops.protectRange(proc.roots(), page, page + PageSize, 0,
                     pt::PteNumaHint, {}, &cost);
    k.shootdown(proc, va, &cost);

    // Migrate the *data* page towards the accessor if it is remote.
    // Page-table pages are deliberately never migrated here — that is
    // the stock-kernel behaviour Mitosis fixes.
    auto &physmem = k.machine().physmem();
    SocketId here = k.machine().topology().socketOfCore(core);
    Pfn data = res.leaf.pfn();
    if (physmem.socketOf(data) != here) {
        auto fresh = physmem.migrateData(data, here);
        if (fresh) {
            int level = (res.size == PageSizeKind::Large2M) ? 2 : 1;
            pt::WalkResult cur = ops.walk(proc.roots(), va);
            MITOSIM_ASSERT(cur.mapped);
            k.backend().setPte(proc.roots(), cur.loc,
                               cur.leaf.withPfn(*fresh), level, &cost);
            std::uint64_t frames = (res.size == PageSizeKind::Large2M)
                                       ? FramesPerLargePage
                                       : 1;
            cost.charge(pvops::PageCopyCost * frames);
            ++stats_.pagesMigrated;
        } else {
            ++stats_.migrationFailures;
        }
    }
    return cost.cycles;
}

} // namespace mitosim::os
