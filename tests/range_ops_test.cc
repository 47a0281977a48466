/**
 * @file
 * Range-op equivalence property test.
 *
 * The kernel's mmap/populate/mprotect/munmap were rewritten from
 * per-page loops (one radix descent from CR3 per 4 KB page) onto the
 * range cursor of pt::PageTableOps. The load-bearing contract is that
 * the rewrite is *observationally identical* under the default cost
 * model: for random VMA layouts and operation sequences, the range
 * path must leave a page-table (compared via the pt_dump snapshot),
 * physical-memory accounting, backend statistics and a KernelCost that
 * are all identical to what the seed's per-page loops produced.
 *
 * The seed path is reproduced here, faithfully, through the same
 * public PageTableOps / PvOps / PhysicalMemory APIs the seed kernel
 * used (per-page walk + unmap + protect + map4K/map2M with the
 * per-page descend charges), and run against a twin machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/pt_dump.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/core/mitosis.h"
#include "src/os/kernel.h"
#include "src/pvops/costs.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::os
{
namespace
{

using pvops::KernelCost;

/** The seed kernel's tlb_single_page_flush_ceiling analogue. */
constexpr std::uint64_t SeedFlushThreshold = 33;

/**
 * Seed-faithful per-page executor: replays the exact per-page loops
 * (and their charge sequence) the kernel shipped with, against a twin
 * kernel's process. VMA metadata evolution uses the same Process API
 * as the range kernel so both sides see identical layouts.
 */
class RefExecutor
{
  public:
    RefExecutor(Kernel &kernel, Process &proc)
        : k(kernel), p(proc), m(kernel.machine())
    {
    }

    void
    mmapFixed(VirtAddr start, std::uint64_t length,
              const MmapOptions &opts, KernelCost *cost)
    {
        // VMA bookkeeping through the kernel (identical Process code),
        // then the seed's per-page populate loop.
        k.mmapFixed(p, start, length, MmapOptions{.populate = false,
                                                  .thp = opts.thp,
                                                  .prot = opts.prot},
                    cost);
        if (opts.populate)
            populate(start, alignUp(length, PageSize), cost);
    }

    void
    populate(VirtAddr start, std::uint64_t length, KernelCost *cost)
    {
        KernelCost local;
        KernelCost &c = cost ? *cost : local;
        auto &ops = k.ptOps();
        VirtAddr va = start;
        VirtAddr end = start + length;
        while (va < end) {
            pt::WalkResult existing = ops.walk(p.roots(), va);
            if (existing.mapped) {
                va += (existing.size == PageSizeKind::Large2M)
                          ? LargePageSize - (va & (LargePageSize - 1))
                          : PageSize;
                continue;
            }
            ASSERT_TRUE(faultIn(va, c)) << "ref populate OOM";
            pt::WalkResult mapped = ops.walk(p.roots(), va);
            ASSERT_TRUE(mapped.mapped);
            va += (mapped.size == PageSizeKind::Large2M)
                      ? LargePageSize - (va & (LargePageSize - 1))
                      : PageSize;
        }
    }

    void
    munmap(VirtAddr start, std::uint64_t length, KernelCost *cost)
    {
        std::uint64_t rounded = alignUp(length, PageSize);
        VirtAddr end = start + rounded;
        auto &ops = k.ptOps();
        auto &pm = m.physmem();
        if (cost)
            cost->charge(pvops::VmaOpFixedCost);
        std::uint64_t pages_touched = 0;
        for (VirtAddr va = start; va < end;) {
            pt::WalkResult res = ops.walk(p.roots(), va);
            if (!res.mapped) {
                va += PageSize;
                continue;
            }
            ops.unmapRange(p.roots(), va, va + PageSize,
                           [](VirtAddr, pt::Pte, PageSizeKind) {}, cost);
            if (res.size == PageSizeKind::Large2M)
                pm.freeDataLarge(res.leaf.pfn());
            else
                pm.freeData(res.leaf.pfn());
            if (cost)
                cost->charge(pvops::PageFreeCost);
            ++pages_touched;
            if (pages_touched <= SeedFlushThreshold)
                k.shootdown(p, va, nullptr);
            va += (res.size == PageSizeKind::Large2M)
                      ? LargePageSize - (va & (LargePageSize - 1))
                      : PageSize;
        }
        if (pages_touched > SeedFlushThreshold)
            k.flushProcess(p, nullptr);
        if (pages_touched > 0 && cost)
            cost->charge(pvops::TlbShootdownCost);
        p.removeVmaRange(start, end);
    }

    void
    mprotect(VirtAddr start, std::uint64_t length, std::uint64_t prot,
             KernelCost *cost)
    {
        std::uint64_t rounded = alignUp(length, PageSize);
        VirtAddr end = start + rounded;
        auto &ops = k.ptOps();
        if (cost)
            cost->charge(pvops::VmaOpFixedCost);
        std::uint64_t set = 0;
        std::uint64_t clear = 0;
        if (prot & ProtWrite)
            set |= pt::PteWrite;
        else
            clear |= pt::PteWrite;
        std::uint64_t pages_touched = 0;
        for (VirtAddr va = start; va < end;) {
            pt::WalkResult res = ops.walk(p.roots(), va);
            if (!res.mapped) {
                va += PageSize;
                continue;
            }
            ops.protect(p.roots(), va, set, clear, cost);
            ++pages_touched;
            if (pages_touched <= SeedFlushThreshold)
                k.shootdown(p, va, nullptr);
            va += (res.size == PageSizeKind::Large2M)
                      ? LargePageSize - (va & (LargePageSize - 1))
                      : PageSize;
        }
        if (pages_touched > SeedFlushThreshold)
            k.flushProcess(p, nullptr);
        if (pages_touched > 0 && cost)
            cost->charge(pvops::TlbShootdownCost);
        p.protectVmaRange(start, end, prot);
    }

    /// 2 MB fault attempts that mapped a huge page / fell back to 4 KB.
    std::uint64_t hugeMapped = 0;
    std::uint64_t hugeFellBack = 0;

  private:
    /** The seed kernel's faultIn, via public APIs. */
    bool
    faultIn(VirtAddr va, KernelCost &cost)
    {
        const Vma *vma = p.findVma(va);
        if (!vma)
            panic("ref segfault at va=0x%llx", (unsigned long long)va);
        cost.charge(pvops::FaultFixedCost);
        CoreId core = m.topology().firstCoreOf(0);
        SocketId fs = m.topology().socketOfCore(core);
        auto &pm = m.physmem();
        std::uint64_t flags = pt::PteUser;
        if (vma->prot & ProtWrite)
            flags |= pt::PteWrite;

        // Mirror the kernel's pmd_none rule: a huge fault needs a
        // vacant L2 slot (promotion of partially-4K ranges is
        // khugepaged's job).
        VirtAddr huge_base = alignDown(va, LargePageSize);
        bool slot_vacant = true;
        if (Pfn dir = k.ptOps().tableFor(p.roots(), huge_base, 2);
            dir != InvalidPfn) {
            pt::Pte slot{m.physmem().table(dir)[ptIndex(
                huge_base, PtLevel::L2)]};
            slot_vacant = !slot.present();
        }
        if (vma->thpEnabled && slot_vacant && huge_base >= vma->start &&
            huge_base + LargePageSize <= vma->end) {
            SocketId target = chooseDataSocket(huge_base, fs, true);
            if (auto head = pm.allocDataLarge(target, p.id())) {
                cost.charge(pvops::PageAllocCost +
                            pvops::PageZeroCost * FramesPerLargePage);
                if (k.ptOps().map2M(p.roots(), p.id(), huge_base, *head,
                                    flags, p.ptPolicy, fs, &cost)) {
                    p.residentPages += FramesPerLargePage;
                    ++hugeMapped;
                    return true;
                }
                pm.freeDataLarge(*head);
                return false;
            }
            ++hugeFellBack;
        }

        SocketId target = chooseDataSocket(va, fs, false);
        auto pfn = pm.allocData(target, p.id());
        if (!pfn)
            pfn = pm.allocDataAny(target, p.id());
        if (!pfn)
            return false;
        cost.charge(pvops::PageAllocCost + pvops::PageZeroCost);
        VirtAddr page_va = alignDown(va, PageSize);
        if (!k.ptOps().map4K(p.roots(), p.id(), page_va, *pfn, flags,
                             p.ptPolicy, fs, &cost)) {
            pm.freeData(*pfn);
            return false;
        }
        ++p.residentPages;
        return true;
    }

    SocketId
    chooseDataSocket(VirtAddr va, SocketId faulting_socket, bool large)
    {
        switch (p.dataPolicy) {
          case DataPolicy::FirstTouch:
            return faulting_socket;
          case DataPolicy::Interleave: {
            unsigned shift = large ? LargePageShift : PageShift;
            return static_cast<SocketId>(
                (va >> shift) %
                static_cast<std::uint64_t>(m.numSockets()));
          }
          case DataPolicy::Fixed:
            return p.dataFixedSocket;
        }
        return faulting_socket;
    }

    Kernel &k;
    Process &p;
    sim::Machine &m;
};

enum class BackendKind
{
    Native,
    Mitosis,
};

/** One side of the comparison: machine + backend + kernel + process. */
struct Side
{
    explicit Side(BackendKind kind, DataPolicy data_policy,
                  pt::PtPlacement pt_placement,
                  const KernelConfig &kernel_cfg = KernelConfig{})
        : machine(sim::MachineConfig::tiny()),
          native(machine.physmem()),
          mitosis(machine.physmem()),
          kernel(machine,
                 kind == BackendKind::Native
                     ? static_cast<pvops::PvOps &>(native)
                     : static_cast<pvops::PvOps &>(mitosis),
                 kernel_cfg),
          proc(kernel.createProcess("prop", 0))
    {
        kernel.setDataPolicy(proc, data_policy);
        kernel.setPtPlacement(proc, pt_placement);
        if (kind == BackendKind::Mitosis) {
            mitosis.setReplicationMask(proc.roots(), proc.id(),
                                       SocketMask::all(2));
        }
    }

    std::string
    snapshot()
    {
        analysis::PtAnalyzer analyzer(machine.physmem(),
                                      kernel.ptOps());
        return analyzer.snapshot(proc.roots()).str();
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    core::MitosisBackend mitosis;
    Kernel kernel;
    Process &proc;
};

void
expectCostEq(const KernelCost &a, const KernelCost &b,
             const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.pteWrites, b.pteWrites) << what;
    EXPECT_EQ(a.replicaWrites, b.replicaWrites) << what;
    EXPECT_EQ(a.replicaHops, b.replicaHops) << what;
    EXPECT_EQ(a.ptPagesAllocated, b.ptPagesAllocated) << what;
    EXPECT_EQ(a.ptPagesFreed, b.ptPagesFreed) << what;
}

void
expectSidesEq(Side &range, Side &ref, const std::string &what)
{
    EXPECT_EQ(range.snapshot(), ref.snapshot()) << what;
    EXPECT_EQ(range.proc.residentPages, ref.proc.residentPages) << what;
    EXPECT_EQ(range.proc.vmas().size(), ref.proc.vmas().size()) << what;
    for (SocketId s = 0; s < range.machine.numSockets(); ++s) {
        const auto &sa = range.machine.physmem().stats(s);
        const auto &sb = ref.machine.physmem().stats(s);
        EXPECT_EQ(sa.dataPages, sb.dataPages) << what << " socket " << s;
        EXPECT_EQ(sa.dataLargePages, sb.dataLargePages)
            << what << " socket " << s;
        EXPECT_EQ(sa.ptPages, sb.ptPages) << what << " socket " << s;
        EXPECT_EQ(range.machine.physmem().freeFrames(s),
                  ref.machine.physmem().freeFrames(s))
            << what << " socket " << s;
    }
    const auto &ma = range.mitosis.stats();
    const auto &mb = ref.mitosis.stats();
    EXPECT_EQ(ma.eagerUpdates, mb.eagerUpdates) << what;
    EXPECT_EQ(ma.replicaRefsOnUpdate, mb.replicaRefsOnUpdate) << what;
    EXPECT_EQ(ma.adMergedReads, mb.adMergedReads) << what;
    EXPECT_EQ(ma.replicaPagesCreated, mb.replicaPagesCreated) << what;
    EXPECT_EQ(ma.replicaPagesFreed, mb.replicaPagesFreed) << what;
}

/**
 * Random VMA layouts + operation sequences; after every operation both
 * sides must agree on cost, and at checkpoints on the whole state.
 *
 * A nonzero @p frag fragments every socket of both machines the same
 * way first, so some 2 MB fault attempts fail and fall back to 4 KB
 * (populate's head-page fallback then streams the rest of the chunk).
 * It also adds a second THP region and gives both unaligned bounds.
 */
void
runProperty(BackendKind kind, DataPolicy data_policy,
            pt::PtPlacement pt_placement, std::uint64_t seed,
            double frag = 0.0)
{
    Side range(kind, data_policy, pt_placement);
    Side ref(kind, data_policy, pt_placement);
    RefExecutor refx(ref.kernel, ref.proc);
    Rng rng(seed);
    if (frag > 0.0) {
        for (Side *side : {&range, &ref}) {
            Rng frag_rng(seed);
            for (SocketId s = 0; s < side->machine.numSockets(); ++s)
                side->machine.physmem().fragment(s, frag, frag_rng);
        }
    }

    // Layout: a handful of regions at fixed slots, mixed THP.
    struct Region
    {
        VirtAddr start;
        std::uint64_t pages; //!< 4 KB units
        bool thp;
        bool mapped = false;
    };
    std::vector<Region> regions;
    for (int i = 0; i < 4; ++i) {
        Region r;
        r.start = 0x10000000000ull +
                  static_cast<VirtAddr>(i) * (64ull << 20);
        r.thp = (i == 3) || (frag > 0.0 && i == 2);
        r.pages = r.thp ? 3 * FramesPerLargePage
                        : 1 + rng.below(96);
        if (frag > 0.0 && r.thp) {
            r.start += (1 + rng.below(FramesPerLargePage - 1)) * PageSize;
            r.pages += rng.below(FramesPerLargePage);
        }
        regions.push_back(r);
    }

    auto opts = [](const Region &r, bool populate,
                   std::uint64_t prot) {
        return MmapOptions{.populate = populate, .thp = r.thp,
                           .prot = prot};
    };

    // Map all regions (half eagerly populated).
    for (Region &r : regions) {
        bool populate = rng.chance(0.5);
        KernelCost ca;
        KernelCost cb;
        range.kernel.mmapFixed(range.proc, r.start, r.pages * PageSize,
                               opts(r, populate,
                                    ProtRead | ProtWrite),
                               &ca);
        refx.mmapFixed(r.start, r.pages * PageSize,
                       opts(r, populate, ProtRead | ProtWrite), &cb);
        expectCostEq(ca, cb, "mmapFixed");
        r.mapped = true;
    }
    expectSidesEq(range, ref, "after layout");

    for (int step = 0; step < 40; ++step) {
        std::string what = "step " + std::to_string(step);
        Region &r = regions[rng.below(regions.size())];
        std::uint64_t page0 = rng.below(r.pages);
        std::uint64_t len =
            (1 + rng.below(r.pages - page0)) * PageSize;
        VirtAddr start = r.start + page0 * PageSize;

        KernelCost ca;
        KernelCost cb;
        switch (rng.below(4)) {
          case 0: // populate a subrange
            range.kernel.populate(range.proc, start, len, 0, &ca);
            refx.populate(start, len, &cb);
            break;
          case 1: { // mprotect a subrange
            std::uint64_t prot = rng.chance(0.5)
                                     ? std::uint64_t{ProtRead}
                                     : ProtRead | ProtWrite;
            range.kernel.mprotect(range.proc, start, len, prot, &ca);
            refx.mprotect(start, len, prot, &cb);
            break;
          }
          case 2: { // munmap a subrange, then map it back fresh
            range.kernel.munmap(range.proc, start, len, &ca);
            refx.munmap(start, len, &cb);
            expectCostEq(ca, cb, what + " munmap");
            expectSidesEq(range, ref, what + " after munmap");
            KernelCost ra;
            KernelCost rb;
            bool populate = rng.chance(0.5);
            range.kernel.mmapFixed(range.proc, start, len,
                                   opts(r, populate,
                                        ProtRead | ProtWrite),
                                   &ra);
            refx.mmapFixed(start, len,
                           opts(r, populate, ProtRead | ProtWrite),
                           &rb);
            ca = ra;
            cb = rb;
            break;
          }
          default: // whole-region populate (THP 2 MB paths included)
            range.kernel.populate(range.proc, r.start,
                                  r.pages * PageSize, 0, &ca);
            refx.populate(r.start, r.pages * PageSize, &cb);
            break;
        }
        expectCostEq(ca, cb, what);
        if (step % 8 == 0)
            expectSidesEq(range, ref, what);
        if (::testing::Test::HasFailure())
            return; // one divergence floods everything downstream
    }
    expectSidesEq(range, ref, "final");

    // Full teardown balances both machines identically.
    KernelCost ca;
    KernelCost cb;
    for (const Region &r : regions) {
        range.kernel.munmap(range.proc, r.start, r.pages * PageSize,
                            &ca);
        refx.munmap(r.start, r.pages * PageSize, &cb);
    }
    expectCostEq(ca, cb, "teardown");
    expectSidesEq(range, ref, "after teardown");
    if (frag > 0.0) {
        // Both outcomes of a 2 MB attempt occurred, or the variant
        // degenerated into one of the unfragmented ones.
        EXPECT_GT(refx.hugeMapped, 0u);
        EXPECT_GT(refx.hugeFellBack, 0u);
    }

    range.kernel.destroyProcess(range.proc);
    ref.kernel.destroyProcess(ref.proc);
}

TEST(RangeOpsProperty, NativeFirstTouch)
{
    runProperty(BackendKind::Native, DataPolicy::FirstTouch,
                pt::PtPlacement::FirstTouch, 1);
}

TEST(RangeOpsProperty, NativeInterleave)
{
    runProperty(BackendKind::Native, DataPolicy::Interleave,
                pt::PtPlacement::Interleave, 2);
}

TEST(RangeOpsProperty, MitosisFirstTouch)
{
    runProperty(BackendKind::Mitosis, DataPolicy::FirstTouch,
                pt::PtPlacement::FirstTouch, 3);
}

TEST(RangeOpsProperty, MitosisInterleave)
{
    runProperty(BackendKind::Mitosis, DataPolicy::Interleave,
                pt::PtPlacement::Interleave, 4);
}

TEST(RangeOpsProperty, MitosisMoreSeeds)
{
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
        runProperty(BackendKind::Mitosis, DataPolicy::FirstTouch,
                    pt::PtPlacement::FirstTouch, seed);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(RangeOpsProperty, MitosisInterleaveFragmented)
{
    for (std::uint64_t seed = 30; seed < 34; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runProperty(BackendKind::Mitosis, DataPolicy::Interleave,
                    pt::PtPlacement::Interleave, seed, 0.95);
        if (::testing::Test::HasFailure())
            return;
    }
}

std::uint64_t
descents(Side &side, const char *path)
{
    return side.machine.metrics()
        .counter("kernel_pt_descents", {{"path", path}})
        .value;
}

/**
 * map4K's leaf-table cursor against a reference kernel that drops the
 * cursor before every access, so each of its demand faults re-descends
 * from the root. Faults come from real Core::access calls (so the
 * known-miss TLB retry after each serviced fault runs too), interleaved
 * with munmap, mprotect, madvise splits, khugepaged collapses,
 * page-table migration and replication-mask flips.
 * Every access must cost the same, and the page tables, memory
 * accounting and MitosisStats must stay identical.
 */
void
runCursorProperty(std::uint64_t seed)
{
    KernelConfig kcfg;
    kcfg.thp.khugepaged = true;
    Side cur(BackendKind::Mitosis, DataPolicy::FirstTouch,
             pt::PtPlacement::FirstTouch, kcfg);
    Side ref(BackendKind::Mitosis, DataPolicy::FirstTouch,
             pt::PtPlacement::FirstTouch, kcfg);
    std::vector<Side *> sides{&cur, &ref};
    auto both = [&](auto &&op) {
        for (Side *s : sides)
            op(*s);
    };
    int cores = cur.machine.numCores();
    both([&](Side &s) {
        for (CoreId c = 0; c < cores; ++c)
            s.kernel.spawnThread(s.proc, c);
    });
    sim::PerfCounters pc_cur;
    sim::PerfCounters pc_ref;
    Rng rng(seed);

    struct Region
    {
        VirtAddr start;
        std::uint64_t pages; //!< 4 KB units
        bool thp;
        std::uint64_t prot = ProtRead | ProtWrite;
    };
    std::vector<Region> regions;
    for (int i = 0; i < 4; ++i) {
        bool thp = (i == 3);
        regions.push_back(Region{
            0x10000000000ull + static_cast<VirtAddr>(i) * (64ull << 20),
            thp ? 3 * FramesPerLargePage : 1 + rng.below(1024), thp});
    }
    // Nothing is populated: every page arrives through a demand fault.
    auto mapFresh = [&](const Region &r, VirtAddr start,
                        std::uint64_t len) {
        both([&](Side &s) {
            s.kernel.mmapFixed(s.proc, start, len,
                               MmapOptions{.thp = r.thp, .prot = r.prot});
        });
    };
    for (const Region &r : regions)
        mapFresh(r, r.start, r.pages * PageSize);

    for (int step = 0; step < 240; ++step) {
        std::string what = "step " + std::to_string(step);
        Region &r = regions[rng.below(regions.size())];
        std::uint64_t page0 = rng.below(r.pages);
        std::uint64_t len = (1 + rng.below(r.pages - page0)) * PageSize;
        VirtAddr start = r.start + page0 * PageSize;
        bool replicated = cur.proc.roots().replicated();

        switch (rng.below(12)) {
          case 0: { // munmap a subrange, then map it back unpopulated
            KernelCost ca;
            KernelCost cb;
            cur.kernel.munmap(cur.proc, start, len, &ca);
            ref.kernel.munmap(ref.proc, start, len, &cb);
            expectCostEq(ca, cb, what + " munmap");
            mapFresh(r, start, len);
            break;
          }
          case 1: // flip the protection of the whole region
            r.prot = (r.prot & ProtWrite) ? std::uint64_t{ProtRead}
                                          : ProtRead | ProtWrite;
            both([&](Side &s) {
                s.kernel.mprotect(s.proc, r.start, r.pages * PageSize,
                                  r.prot);
            });
            break;
          case 2: { // madvise a subrange (splits straddling huge pages)
            Madvise advice =
                rng.chance(0.5) ? Madvise::Huge : Madvise::NoHuge;
            both([&](Side &s) {
                s.kernel.madvise(s.proc, start, len, advice);
            });
            break;
          }
          case 3: // khugepaged collapses
            both([&](Side &s) { s.kernel.thpTick(); });
            break;
          case 4: // replication flip or page-table migration
            if (!replicated && rng.chance(0.5)) {
                SocketId target = static_cast<SocketId>(rng.below(2));
                both([&](Side &s) {
                    EXPECT_TRUE(s.mitosis.migratePageTables(
                        s.proc.roots(), s.proc.id(), target));
                    s.kernel.reloadContexts(s.proc);
                });
            } else {
                SocketMask mask =
                    replicated ? SocketMask::none() : SocketMask::all(2);
                both([&](Side &s) {
                    EXPECT_TRUE(s.mitosis.setReplicationMask(
                        s.proc.roots(), s.proc.id(), mask));
                    s.kernel.reloadContexts(s.proc);
                });
            }
            break;
          default: { // a burst of accesses from one core
            CoreId core = static_cast<CoreId>(rng.below(cores));
            bool write = (r.prot & ProtWrite) && rng.chance(0.5);
            std::uint64_t n = std::min<std::uint64_t>(1 + rng.below(48),
                                                      len / PageSize);
            for (std::uint64_t k = 0; k < n; ++k) {
                VirtAddr va = start + k * PageSize;
                ref.kernel.ptOps().dropCursorForTest();
                Cycles a = cur.machine.core(core).access(va, write, pc_cur);
                Cycles b = ref.machine.core(core).access(va, write, pc_ref);
                EXPECT_EQ(a, b) << what << " va=" << va;
            }
            EXPECT_EQ(0, std::memcmp(&pc_cur, &pc_ref, sizeof pc_cur))
                << what;
            break;
          }
        }
        if (step % 12 == 0)
            expectSidesEq(cur, ref, what);
        if (::testing::Test::HasFailure())
            return;
    }
    expectSidesEq(cur, ref, "final");
    EXPECT_GT(descents(cur, "cursor"), 0u);
    EXPECT_EQ(descents(ref, "cursor"), 0u);
    EXPECT_GT(descents(ref, "full"), descents(cur, "full"));
}

TEST(RangeOpsProperty, FaultCursorMatchesFullDescent)
{
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runCursorProperty(seed);
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace
} // namespace mitosim::os
