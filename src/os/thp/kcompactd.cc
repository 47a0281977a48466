/**
 * @file
 * kcompactd: the background compaction daemon.
 *
 * When khugepaged cannot collapse for lack of a free 2 MB block,
 * compaction reconstitutes allocLargeBlock() capacity by draining the
 * few allocated frames out of nearly-free blocks:
 *
 *  - mapped 4 KB data frames of the scanned processes move through the
 *    data-migration path — a targeted same-socket reallocation
 *    (FrameAllocator::allocFrameForCompaction, which never splits a
 *    free block), a PageCopyCost copy, a replica-coherent PTE rewrite
 *    through the PV-Ops backend, and a range shootdown per process so
 *    stale translations — including descheduled tenants' ASID-tagged
 *    entries — die before the freed frames can be reused;
 *  - fragmentation-injector fillers move as modelled movable kernel
 *    memory (no PTE involved);
 *  - anything else (page-table frames, 2 MB data, unscanned owners)
 *    makes the block unmovable and it is skipped.
 *
 * The pfn→(process, va) reverse map Linux keeps in struct page/rmap is
 * rebuilt from the scanned processes' leaf entries, lazily: only in a
 * tick whose movability pre-check meets a mapped 4 KB data frame, and
 * only for frames inside that tick's candidate blocks. Most ticks
 * find candidates holding nothing but fragmentation pins or immovable
 * frames and never build it. Why the lazy, filtered map answers every
 * lookup exactly as a full tick-start rebuild would is argued at
 * TickRmap; Debug builds check each lookup against that rebuild.
 */

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/os/kernel.h"
#include "src/os/thp/thp.h"
#include "src/pvops/costs.h"

namespace mitosim::os::thp
{

namespace
{

/** Where a mapped 4 KB data frame is mapped: (owner, va). */
using RmapEntry = std::pair<Process *, VirtAddr>;
using Rmap = std::unordered_map<Pfn, RmapEntry>;

/**
 * One tick's reverse map, built on the first lookup and holding only
 * leaves whose frame lies in a candidate block (@p candidate, one flag
 * per 2 MB block of the machine, indexed by pfn / 512).
 *
 * Exact because:
 *  - every lookup is for a frame in a candidate block, or for a frame
 *    moved during this tick (moved() inserts those, as a full map
 *    would);
 *  - until the first lookup the tick has moved only fragmentation
 *    pins, which changes no PTE, so building then reads the same
 *    leaves a tick-start build would;
 *  - leaves are visited in the same order, so a pfn mapped twice keeps
 *    the same last writer.
 */
class TickRmap
{
  public:
    TickRmap(const pt::PageTableOps &ops,
             const std::vector<Process *> &procs,
             const std::vector<bool> &candidate, obs::Counter &builds,
             obs::Counter &entries, std::uint64_t &cross_checks)
        : ops(ops), procs(procs), candidate(candidate), builds(builds),
          entries(entries), crossChecks(cross_checks)
    {
#ifndef NDEBUG
        fill(reference, [](Pfn) { return true; }, false);
#endif
    }

    /** Owner and va of @p pfn, or nullptr when it is not mapped 4 KB. */
    const RmapEntry *
    find(Pfn pfn)
    {
        if (!built) {
            fill(
                map,
                [this](Pfn p) { return candidate[p / FramesPerLargePage]; },
                true);
            built = true;
            builds.inc();
            entries.inc(map.size());
        }
        auto it = map.find(pfn);
        const RmapEntry *hit = it == map.end() ? nullptr : &it->second;
#ifndef NDEBUG
        auto ref = reference.find(pfn);
        MITOSIM_ASSERT((ref == reference.end()) == (hit == nullptr) &&
                           (!hit || *hit == ref->second),
                       "kcompactd: lazy rmap disagrees with the "
                       "tick-start rebuild");
        ++crossChecks;
#endif
        return hit;
    }

    /** @p from's mapping now points at @p to. */
    void
    moved(Pfn from, Pfn to, const RmapEntry &owner)
    {
        map.erase(from);
        map[to] = owner;
#ifndef NDEBUG
        reference.erase(from);
        reference[to] = owner;
#endif
    }

  private:
    /**
     * Record the 4 KB leaves whose frame @p keep accepts. With
     * @p prune, skip subtrees no VMA overlaps, as AutoNuma::scan does:
     * they hold no leaf, so the leaves and their order are the full
     * walk's (the Debug reference rebuild walks in full).
     */
    template <typename Keep>
    void
    fill(Rmap &out, Keep &&keep, bool prune) const
    {
        for (Process *p : procs) {
            auto visit = [&](VirtAddr va, pt::PteLoc, pt::Pte pte,
                             PageSizeKind size) {
                if (size == PageSizeKind::Base4K && keep(pte.pfn()))
                    out[pte.pfn()] = {p, va};
            };
            if (prune) {
                ops.forEachLeaf(p->roots(), visit,
                                [p](VirtAddr lo, VirtAddr hi) {
                                    return p->overlapsRange(lo, hi);
                                });
            } else {
                ops.forEachLeaf(p->roots(), visit);
            }
        }
    }

    const pt::PageTableOps &ops;
    const std::vector<Process *> &procs;
    const std::vector<bool> &candidate;
    obs::Counter &builds;
    obs::Counter &entries;
    std::uint64_t &crossChecks;
    Rmap map;
    bool built = false;
#ifndef NDEBUG
    Rmap reference; //!< the full rebuild at tick start
#endif
};

} // namespace

void
ThpManager::compactTick(const std::vector<Process *> &procs,
                        pvops::KernelCost *cost)
{
    auto &machine = k.machine();
    auto &physmem = machine.physmem();
    auto &ops = k.ptOps();

    // Source candidates of every socket, fixed before any socket is
    // compacted: compacting socket s allocates and frees frames on s
    // only, so each list equals one taken just before its socket's
    // turn. Nearly-free blocks, emptiest first (the cheapest
    // reclaims), ties by block index for determinism: a counting sort
    // on the used count, with the blocks ascending inside each count.
    std::vector<std::vector<std::uint64_t>> cands(machine.numSockets());
    std::vector<bool> candidate(
        machine.topology().totalFrames() / FramesPerLargePage);
    // next[u]: where the next block with used count u goes.
    std::vector<std::uint32_t> next(CompactMaxUsed + 2);
    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        const mem::FrameAllocator &alloc = physmem.allocator(s);
        std::uint64_t first_block = alloc.firstPfn() / FramesPerLargePage;
        std::fill(next.begin(), next.end(), 0);
        for (std::uint64_t b = 0; b < alloc.numBlocks(); ++b) {
            std::uint32_t used = alloc.blockUsedCount(b);
            if (used > 0 && used <= CompactMaxUsed) {
                ++next[used + 1];
                candidate[first_block + b] = true;
            }
        }
        std::partial_sum(next.begin(), next.end(), next.begin());
        cands[s].resize(next.back());
        for (std::uint64_t b = 0; b < alloc.numBlocks(); ++b) {
            if (candidate[first_block + b])
                cands[s][next[alloc.blockUsedCount(b)]++] = b;
        }
    }

    TickRmap rmap(ops, procs, candidate, *mRmapBuilds, *mRmapEntries,
                  rmapCrossChecks_);

    std::vector<Pfn> frames;
    std::vector<std::pair<Process *, VirtAddr>> moved;
    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        const mem::FrameAllocator &alloc = physmem.allocator(s);

        unsigned budget = CompactBlocksPerTick;
        for (std::uint64_t b : cands[s]) {
            if (!budget)
                break;
            // Earlier relocations may have drained or refilled this
            // block; re-check before working on it.
            std::uint32_t used = alloc.blockUsedCount(b);
            if (used == 0 || used > CompactMaxUsed)
                continue;

            frames.clear();
            alloc.forEachAllocatedInBlock(
                b, [&](Pfn p) { frames.push_back(p); });

            // Movability pre-check: one immovable frame pins the
            // block. Unmovable candidates cost no budget — a socket
            // full of PT-pinned near-empty blocks must not starve the
            // drainable ones behind them in the list. Only 4 KB data
            // frames move: a huge page's frames keep Free metadata.
            bool movable = true;
            for (Pfn p : frames) {
                if (physmem.isFragPinned(p))
                    continue;
                if (std::as_const(physmem).meta(p).type ==
                        mem::FrameType::Data &&
                    rmap.find(p))
                    continue;
                movable = false;
                break;
            }
            if (!movable) {
                ++stats_.compactionFailures;
                mCompactionFailures->inc();
                continue;
            }
            --budget;

            bool drained = true;
            moved.clear();
            for (Pfn p : frames) {
                if (physmem.isFragPinned(p)) {
                    if (!physmem.compactReservedPin(p)) {
                        ++stats_.compactionFailures;
                        mCompactionFailures->inc();
                        drained = false;
                        break;
                    }
                    if (cost)
                        cost->charge(pvops::PageCopyCost);
                    ++stats_.compactionPagesMoved;
                    mPagesMoved->inc();
                    continue;
                }
                const RmapEntry *owner = rmap.find(p);
                MITOSIM_ASSERT(owner, "kcompactd: unmapped data frame");
                auto [proc, va] = *owner;
                auto fresh = physmem.compactData(p);
                if (!fresh) {
                    ++stats_.compactionFailures;
                    mCompactionFailures->inc();
                    drained = false;
                    break;
                }
                pt::WalkResult cur = ops.walk(proc->roots(), va);
                MITOSIM_ASSERT(cur.mapped && cur.leaf.pfn() == p,
                               "kcompactd: rmap out of date");
                k.backend().setPte(proc->roots(), cur.loc,
                                   cur.leaf.withPfn(*fresh), 1, cost);
                if (cost)
                    cost->charge(pvops::PageCopyCost);
                rmap.moved(p, *fresh, {proc, va});
                moved.emplace_back(proc, va);
                ++stats_.compactionPagesMoved;
                mPagesMoved->inc();
            }

            // Shoot down the moved translations per owning process —
            // stale (possibly descheduled, ASID-tagged) entries must
            // die before the vacated frames are reused. Grouped in
            // procs order so the simulated TLB traffic is
            // deterministic.
            for (Process *p : procs) {
                std::vector<VirtAddr> vas;
                for (const auto &[owner, va] : moved) {
                    if (owner == p)
                        vas.push_back(va);
                }
                if (!vas.empty())
                    k.shootdownRange(*p, vas, vas.size(), cost);
            }

            if (drained) {
                ++stats_.compactionBlocksReclaimed;
                mBlocksReclaimed->inc();
            }
        }
    }
}

} // namespace mitosim::os::thp
