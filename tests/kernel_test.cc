/**
 * @file
 * Unit tests for os::Kernel: process lifecycle, mmap/munmap/mprotect,
 * demand paging through real core accesses, placement policies, THP,
 * thread scheduling and TLB shootdowns.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/base/logging.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/pvops/costs.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::os
{
namespace
{

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest()
        : machine(sim::MachineConfig::tiny()),
          native(machine.physmem()),
          kernel(machine, native)
    {
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    Kernel kernel;
};

TEST_F(KernelTest, CreateProcessBuildsRoot)
{
    Process &p = kernel.createProcess("test", 1);
    EXPECT_NE(p.roots().primaryRoot, InvalidPfn);
    EXPECT_EQ(machine.physmem().socketOf(p.roots().primaryRoot), 1);
    EXPECT_EQ(kernel.homeSocket(p), 1);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, DestroyProcessReturnsAllMemory)
{
    auto &pm = machine.physmem();
    std::uint64_t free0 = pm.freeFrames(0);
    std::uint64_t free1 = pm.freeFrames(1);
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 1ull << 20, MmapOptions{.populate = true});
    (void)region;
    kernel.destroyProcess(p);
    EXPECT_EQ(pm.freeFrames(0), free0);
    EXPECT_EQ(pm.freeFrames(1), free1);
}

TEST_F(KernelTest, MmapWithoutPopulateMapsNothing)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 64 * PageSize, MmapOptions{});
    EXPECT_FALSE(kernel.ptOps().walk(p.roots(), region.start).mapped);
    EXPECT_NE(p.findVma(region.start), nullptr);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, PopulateMapsEveryPage)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 16 * PageSize,
                              MmapOptions{.populate = true});
    for (VirtAddr va = region.start; va < region.end(); va += PageSize)
        EXPECT_TRUE(kernel.ptOps().walk(p.roots(), va).mapped);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, DemandFaultThroughCoreAccess)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 4 * PageSize, MmapOptions{});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    ctx.access(tid, region.start, true);
    EXPECT_TRUE(kernel.ptOps().walk(p.roots(), region.start).mapped);
    EXPECT_GT(ctx.threadCounters(tid).kernelCycles, 0u);
    kernel.destroyProcess(p);
}

/**
 * One kernel per machine: a second kernel refuses to boot while the
 * first lives (which keeps servicing faults); once the first is gone,
 * a new kernel binds and services them.
 */
TEST(KernelBinding, OneKernelPerMachine)
{
    sim::Machine machine(sim::MachineConfig::tiny());
    pvops::NativeBackend native(machine.physmem());
    auto demand_fault = [](Kernel &k) {
        Process &p = k.createProcess("test", 0);
        auto region = k.mmap(p, PageSize, MmapOptions{});
        ExecContext ctx(k, p);
        int tid = ctx.addThread(0);
        ctx.access(tid, region.start, true);
        EXPECT_TRUE(k.ptOps().walk(p.roots(), region.start).mapped);
        EXPECT_GT(ctx.threadCounters(tid).kernelCycles, 0u);
        k.destroyProcess(p);
    };
    {
        Kernel first(machine, native);
        EXPECT_THROW({ Kernel second(machine, native); }, SimError);
        demand_fault(first);
    }
    EXPECT_FALSE(machine.hasFaultHandler());
    Kernel next(machine, native);
    demand_fault(next);
}

TEST_F(KernelTest, SegfaultPanics)
{
    Process &p = kernel.createProcess("test", 0);
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    EXPECT_THROW(ctx.access(tid, 0xdeadbeef000ull, false), SimError);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, FirstTouchPlacesDataOnFaultingSocket)
{
    Process &p = kernel.createProcess("test", 0);
    kernel.setDataPolicy(p, DataPolicy::FirstTouch);
    auto region = kernel.mmap(p, 2 * PageSize, MmapOptions{});
    ExecContext ctx(kernel, p);
    int t0 = ctx.addThread(0);
    int t1 = ctx.addThread(1);
    ctx.access(t0, region.start, true);
    ctx.access(t1, region.start + PageSize, true);
    auto &pm = machine.physmem();
    auto leaf0 = kernel.ptOps().walk(p.roots(), region.start);
    auto leaf1 = kernel.ptOps().walk(p.roots(), region.start + PageSize);
    EXPECT_EQ(pm.socketOf(leaf0.leaf.pfn()), 0);
    EXPECT_EQ(pm.socketOf(leaf1.leaf.pfn()), 1);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, InterleavePolicySpreadsData)
{
    Process &p = kernel.createProcess("test", 0);
    kernel.setDataPolicy(p, DataPolicy::Interleave);
    auto region = kernel.mmap(p, 8 * PageSize,
                              MmapOptions{.populate = true});
    auto &pm = machine.physmem();
    int on0 = 0;
    int on1 = 0;
    for (VirtAddr va = region.start; va < region.end(); va += PageSize) {
        auto leaf = kernel.ptOps().walk(p.roots(), va);
        if (pm.socketOf(leaf.leaf.pfn()) == 0)
            ++on0;
        else
            ++on1;
    }
    EXPECT_EQ(on0, 4);
    EXPECT_EQ(on1, 4);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, FixedPolicyForcesSocket)
{
    Process &p = kernel.createProcess("test", 0);
    kernel.setDataPolicy(p, DataPolicy::Fixed, 1);
    kernel.setPtPlacement(p, pt::PtPlacement::Fixed, 1);
    auto region = kernel.mmap(p, 8 * PageSize,
                              MmapOptions{.populate = true});
    auto &pm = machine.physmem();
    for (VirtAddr va = region.start; va < region.end(); va += PageSize) {
        auto leaf = kernel.ptOps().walk(p.roots(), va);
        EXPECT_EQ(pm.socketOf(leaf.leaf.pfn()), 1);
        EXPECT_EQ(pm.socketOf(leaf.loc.ptPfn), 1);
    }
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, ThpFaultsMap2MPages)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 2 * LargePageSize,
                              MmapOptions{.populate = true, .thp = true});
    auto res = kernel.ptOps().walk(p.roots(), region.start);
    EXPECT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Large2M);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, ThpFallsBackTo4KUnderFragmentation)
{
    Rng rng(11);
    machine.physmem().fragment(0, 1.0, rng);
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, LargePageSize,
                              MmapOptions{.populate = true, .thp = true});
    auto res = kernel.ptOps().walk(p.roots(), region.start);
    EXPECT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Base4K);
    kernel.destroyProcess(p);
    machine.physmem().defragment(0);
}

TEST_F(KernelTest, MunmapFreesDataAndUnmaps)
{
    auto &pm = machine.physmem();
    Process &p = kernel.createProcess("test", 0);
    std::uint64_t live_before = pm.stats(0).dataPages;
    auto region = kernel.mmap(p, 8 * PageSize,
                              MmapOptions{.populate = true});
    EXPECT_GT(pm.stats(0).dataPages, live_before);
    kernel.munmap(p, region.start, region.length);
    EXPECT_EQ(pm.stats(0).dataPages, live_before);
    EXPECT_FALSE(kernel.ptOps().walk(p.roots(), region.start).mapped);
    EXPECT_EQ(p.findVma(region.start), nullptr);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, PartialMunmapSplitsVma)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 8 * PageSize,
                              MmapOptions{.populate = true});
    // Unmap the middle two pages.
    kernel.munmap(p, region.start + 2 * PageSize, 2 * PageSize);
    EXPECT_NE(p.findVma(region.start), nullptr);
    EXPECT_EQ(p.findVma(region.start + 2 * PageSize), nullptr);
    EXPECT_EQ(p.findVma(region.start + 3 * PageSize), nullptr);
    EXPECT_NE(p.findVma(region.start + 4 * PageSize), nullptr);
    EXPECT_EQ(p.vmas().size(), 2u);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MunmapShootsDownTlbs)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, PageSize, MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    ctx.access(tid, region.start, false); // TLB now holds it
    kernel.munmap(p, region.start, PageSize);
    // A fresh access must fault (and panic: VMA gone).
    EXPECT_THROW(ctx.access(tid, region.start, false), SimError);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MprotectPartialOverlapSplitsVma)
{
    // Regression: the seed only updated VMAs *fully contained* in the
    // mprotect range, so a partially covered VMA kept its old prot
    // while its PTEs were rewritten. The VMA must split so metadata
    // matches the PTEs.
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 8 * PageSize,
                              MmapOptions{.populate = true});
    kernel.mprotect(p, region.start + 2 * PageSize, 2 * PageSize,
                    ProtRead);

    ASSERT_NE(p.findVma(region.start), nullptr);
    EXPECT_EQ(p.findVma(region.start)->prot,
              std::uint64_t{ProtRead | ProtWrite});
    ASSERT_NE(p.findVma(region.start + 2 * PageSize), nullptr);
    EXPECT_EQ(p.findVma(region.start + 2 * PageSize)->prot,
              std::uint64_t{ProtRead});
    EXPECT_EQ(p.findVma(region.start + 3 * PageSize)->prot,
              std::uint64_t{ProtRead});
    EXPECT_EQ(p.findVma(region.start + 4 * PageSize)->prot,
              std::uint64_t{ProtRead | ProtWrite});
    EXPECT_EQ(p.vmas().size(), 3u);

    // VMA boundaries are exact.
    const Vma *mid = p.findVma(region.start + 2 * PageSize);
    EXPECT_EQ(mid->start, region.start + 2 * PageSize);
    EXPECT_EQ(mid->end, region.start + 4 * PageSize);

    // And the PTEs agree with the metadata.
    EXPECT_TRUE(kernel.ptOps()
                    .walk(p.roots(), region.start)
                    .leaf.writable());
    EXPECT_FALSE(kernel.ptOps()
                     .walk(p.roots(), region.start + 2 * PageSize)
                     .leaf.writable());

    // Restoring the prot merges the split VMAs back into one.
    kernel.mprotect(p, region.start + 2 * PageSize, 2 * PageSize,
                    ProtRead | ProtWrite);
    EXPECT_EQ(p.vmas().size(), 1u);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MprotectHeadOfVmaSplitsAtBoundary)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 4 * PageSize,
                              MmapOptions{.populate = true});
    kernel.mprotect(p, region.start, 2 * PageSize, ProtRead);
    EXPECT_EQ(p.vmas().size(), 2u);
    EXPECT_EQ(p.findVma(region.start)->end,
              region.start + 2 * PageSize);
    EXPECT_EQ(p.findVma(region.start)->prot, std::uint64_t{ProtRead});
    EXPECT_EQ(p.findVma(region.start + 2 * PageSize)->prot,
              std::uint64_t{ProtRead | ProtWrite});
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, ShootdownCostAttributedToRangeOps)
{
    // Regression: the seed's per-page shootdowns ran with a null cost
    // and the IPI charge was added blindly at the call site. The range
    // path must attribute exactly one shootdown round to the caller
    // when pages were touched, and none otherwise.
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 4 * PageSize,
                              MmapOptions{.populate = true});

    pvops::KernelCost unmap_cost;
    kernel.munmap(p, region.start, 2 * PageSize, &unmap_cost);
    EXPECT_GE(unmap_cost.cycles,
              pvops::VmaOpFixedCost + pvops::TlbShootdownCost);

    // Unmapping an already-empty range: no pages, no IPI round.
    pvops::KernelCost empty_cost;
    kernel.munmap(p, region.start, 2 * PageSize, &empty_cost);
    EXPECT_EQ(empty_cost.cycles, pvops::VmaOpFixedCost);

    // mprotect of an unpopulated range likewise skips the shootdown.
    auto lazy_region = kernel.mmap(p, 2 * PageSize, MmapOptions{});
    pvops::KernelCost protect_cost;
    kernel.mprotect(p, lazy_region.start, lazy_region.length, ProtRead,
                    &protect_cost);
    EXPECT_EQ(protect_cost.cycles, pvops::VmaOpFixedCost);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, AdjacentEqualVmasMerge)
{
    Process &p = kernel.createProcess("test", 0);
    auto a = kernel.mmapFixed(p, 0x20000000000ull, 4 * PageSize,
                              MmapOptions{});
    auto b = kernel.mmapFixed(p, a.end(), 4 * PageSize, MmapOptions{});
    EXPECT_EQ(p.vmas().size(), 1u);
    EXPECT_EQ(p.findVma(a.start)->end, b.end());

    // Different attributes must NOT merge.
    kernel.mmapFixed(p, b.end(), 4 * PageSize,
                     MmapOptions{.prot = ProtRead});
    EXPECT_EQ(p.vmas().size(), 2u);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, ThpVmasNeverMerge)
{
    // A merged THP VMA would let populate install a 2 MB page spanning
    // the old region boundary, coupling the two mappings' lifetimes
    // (munmap of one region would tear down its neighbour's pages).
    Process &p = kernel.createProcess("test", 0);
    VirtAddr base = 0x20000000000ull; // 2 MB aligned
    std::uint64_t half = LargePageSize / 2;
    kernel.mmapFixed(p, base, half, MmapOptions{.thp = true});
    kernel.mmapFixed(p, base + half, half, MmapOptions{.thp = true});
    EXPECT_EQ(p.vmas().size(), 2u);

    // Populating the first region must stay within it: the aligned
    // 2 MB block does not fit either (unmerged) VMA, so 4 KB pages.
    kernel.populate(p, base, half, 0, nullptr);
    auto res = kernel.ptOps().walk(p.roots(), base);
    EXPECT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Base4K);
    EXPECT_FALSE(kernel.ptOps().walk(p.roots(), base + half).mapped);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MadviseHugeSplitsVmaAtExactBoundaries)
{
    Process &p = kernel.createProcess("test", 0);
    VirtAddr base = 0x20000000000ull;
    kernel.mmapFixed(p, base, 4 * LargePageSize, MmapOptions{});
    ASSERT_EQ(p.vmas().size(), 1u);

    pvops::KernelCost cost;
    kernel.madvise(p, base + LargePageSize, LargePageSize,
                   Madvise::Huge, &cost);
    EXPECT_GE(cost.cycles, pvops::VmaOpFixedCost);
    ASSERT_EQ(p.vmas().size(), 3u);
    EXPECT_FALSE(p.findVma(base)->thpEnabled);
    const Vma *mid = p.findVma(base + LargePageSize);
    ASSERT_NE(mid, nullptr);
    EXPECT_TRUE(mid->thpEnabled);
    EXPECT_EQ(mid->start, base + LargePageSize);
    EXPECT_EQ(mid->end, base + 2 * LargePageSize);
    EXPECT_FALSE(p.findVma(base + 2 * LargePageSize)->thpEnabled);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MadviseNoHugeMergesBackAndGatesFaults)
{
    Process &p = kernel.createProcess("test", 0);
    VirtAddr base = 0x20000000000ull;
    kernel.mmapFixed(p, base, 2 * LargePageSize, MmapOptions{});
    kernel.madvise(p, base, LargePageSize, Madvise::Huge);
    ASSERT_EQ(p.vmas().size(), 2u);

    // A fault in the advised half maps 2 MB; the other half 4 KB.
    kernel.populate(p, base, PageSize, 0);
    EXPECT_EQ(kernel.ptOps().walk(p.roots(), base).size,
              PageSizeKind::Large2M);
    kernel.populate(p, base + LargePageSize, PageSize, 0);
    EXPECT_EQ(kernel.ptOps().walk(p.roots(), base + LargePageSize).size,
              PageSizeKind::Base4K);

    // Toggling back off merges the VMAs again (both non-THP, same
    // prot) — the existing huge mapping stays, as in Linux.
    kernel.madvise(p, base, LargePageSize, Madvise::NoHuge);
    EXPECT_EQ(p.vmas().size(), 1u);
    EXPECT_EQ(kernel.ptOps().walk(p.roots(), base).size,
              PageSizeKind::Large2M);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MadviseUnalignedBoundaryDemotesStraddlingHugePage)
{
    Process &p = kernel.createProcess("test", 0);
    VirtAddr base = 0x20000000000ull;
    kernel.mmapFixed(p, base, LargePageSize,
                     MmapOptions{.populate = true, .thp = true});
    ASSERT_EQ(kernel.ptOps().walk(p.roots(), base).size,
              PageSizeKind::Large2M);

    // The advice boundary cuts through the live huge page: it must be
    // demoted so no 2 MB mapping spans two VMAs.
    kernel.madvise(p, base, LargePageSize / 4, Madvise::NoHuge);
    EXPECT_EQ(p.vmas().size(), 2u);
    EXPECT_EQ(kernel.ptOps().walk(p.roots(), base).size,
              PageSizeKind::Base4K);
    EXPECT_EQ(kernel.thp().stats().splits, 1u);
    // Every page is still mapped onto the same physical frames.
    EXPECT_TRUE(kernel.ptOps()
                    .walk(p.roots(), base + LargePageSize - PageSize)
                    .mapped);
    kernel.destroyProcess(p);
}

/** One VMA as (start - base, end - base, prot, thpEnabled). */
using VmaRow = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, bool>;

std::vector<VmaRow>
vmaTree(const Process &p, VirtAddr base)
{
    std::vector<VmaRow> rows;
    for (const auto &[start, v] : p.vmas())
        rows.emplace_back(v.start - base, v.end - base, v.prot,
                          v.thpEnabled);
    return rows;
}

TEST_F(KernelTest, MprotectAndMadviseSplitMergeTreeIsPinned)
{
    // mprotect and madvise over ranges that start and end inside a
    // VMA, at a VMA boundary and across one. A VMA whose attribute
    // already matches is skipped, never split: in particular a THP VMA,
    // which would never merge back.
    constexpr std::uint64_t P = PageSize;
    constexpr std::uint64_t M = LargePageSize;
    constexpr std::uint64_t RW = ProtRead | ProtWrite;
    constexpr std::uint64_t R = ProtRead;
    Process &p = kernel.createProcess("test", 0);
    VirtAddr base = 0x20000000000ull;
    kernel.mmapFixed(p, base, 16 * P, MmapOptions{});
    kernel.mmapFixed(p, base + 16 * P, 16 * P, MmapOptions{.prot = R});
    kernel.mmapFixed(p, base + M, M, MmapOptions{.thp = true});
    kernel.mmapFixed(p, base + 2 * M, M,
                     MmapOptions{.thp = true, .prot = R});

    // Start and end inside one VMA.
    kernel.mprotect(p, base + 2 * P, 2 * P, R);
    EXPECT_EQ(vmaTree(p, base),
              (std::vector<VmaRow>{{0, 2 * P, RW, false},
                                   {2 * P, 4 * P, R, false},
                                   {4 * P, 16 * P, RW, false},
                                   {16 * P, 32 * P, R, false},
                                   {M, 2 * M, RW, true},
                                   {2 * M, 3 * M, R, true}}));

    // Across a boundary into an already-matching VMA, which merges.
    kernel.mprotect(p, base + 12 * P, 8 * P, R);
    EXPECT_EQ(vmaTree(p, base),
              (std::vector<VmaRow>{{0, 2 * P, RW, false},
                                   {2 * P, 4 * P, R, false},
                                   {4 * P, 12 * P, RW, false},
                                   {12 * P, 32 * P, R, false},
                                   {M, 2 * M, RW, true},
                                   {2 * M, 3 * M, R, true}}));

    // Exactly at VMA boundaries: everything merges.
    kernel.mprotect(p, base + 4 * P, 8 * P, R);
    EXPECT_EQ(vmaTree(p, base),
              (std::vector<VmaRow>{{0, 2 * P, RW, false},
                                   {2 * P, 32 * P, R, false},
                                   {M, 2 * M, RW, true},
                                   {2 * M, 3 * M, R, true}}));

    // madvise from inside a VMA, over a hole, to inside an
    // already-THP VMA, which keeps its bounds.
    kernel.madvise(p, base + P, M + 8 * P, Madvise::Huge);
    EXPECT_EQ(vmaTree(p, base),
              (std::vector<VmaRow>{{0, P, RW, false},
                                   {P, 2 * P, RW, true},
                                   {2 * P, 32 * P, R, true},
                                   {M, 2 * M, RW, true},
                                   {2 * M, 3 * M, R, true}}));

    // From inside one THP VMA across the boundary into the next.
    kernel.madvise(p, base + M + M / 2, M / 2 + 4 * P, Madvise::NoHuge);
    const std::vector<VmaRow> split = {{0, P, RW, false},
                                       {P, 2 * P, RW, true},
                                       {2 * P, 32 * P, R, true},
                                       {M, M + M / 2, RW, true},
                                       {M + M / 2, 2 * M, RW, false},
                                       {2 * M, 2 * M + 4 * P, R, false},
                                       {2 * M + 4 * P, 3 * M, R, true}};
    EXPECT_EQ(vmaTree(p, base), split);

    // Already matching, inside and at the boundaries of a THP VMA:
    // nothing splits.
    kernel.mprotect(p, base + M + 4 * P, 4 * P, RW);
    kernel.mprotect(p, base + M, M / 2, RW);
    kernel.madvise(p, base + M + 8 * P, 8 * P, Madvise::Huge);
    kernel.madvise(p, base + 2 * M + 8 * P, 8 * P, Madvise::Huge);
    EXPECT_EQ(vmaTree(p, base), split);

    // Across: the THP head splits, the non-THP middle merges with its
    // newly matching neighbour, the already-matching THP tail stays.
    kernel.mprotect(p, base + M + M / 4, M, R);
    EXPECT_EQ(vmaTree(p, base),
              (std::vector<VmaRow>{{0, P, RW, false},
                                   {P, 2 * P, RW, true},
                                   {2 * P, 32 * P, R, true},
                                   {M, M + M / 4, RW, true},
                                   {M + M / 4, M + M / 2, R, true},
                                   {M + M / 2, 2 * M + 4 * P, R, false},
                                   {2 * M + 4 * P, 3 * M, R, true}}));
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, PopulateOverVmaHolePanics)
{
    Process &p = kernel.createProcess("test", 0);
    VirtAddr base = 0x20000000000ull;
    kernel.mmapFixed(p, base, 2 * PageSize, MmapOptions{});
    kernel.mmapFixed(p, base + 4 * PageSize, 2 * PageSize,
                     MmapOptions{});
    // [base+2p, base+4p) has no VMA and no mappings: segfault.
    EXPECT_THROW(kernel.populate(p, base, 6 * PageSize, 0, nullptr),
                 SimError);

    // Mapping the gap by hand (a state vmcheck reports as a VMA<->PTE
    // violation) does not make it populatable: still a segfault.
    auto &pm = machine.physmem();
    pt::PageTableOps &ops = kernel.ptOps();
    for (VirtAddr va = base + 2 * PageSize; va < base + 4 * PageSize;
         va += PageSize) {
        auto pfn = pm.allocData(0, p.id());
        ASSERT_TRUE(pfn.has_value());
        ASSERT_TRUE(ops.map4K(p.roots(), p.id(), va, *pfn,
                              pt::PteUser | pt::PteWrite, p.ptPolicy, 0,
                              nullptr));
    }
    EXPECT_THROW(kernel.populate(p, base, 6 * PageSize, 0, nullptr),
                 SimError);
    ops.unmapRange(p.roots(), base + 2 * PageSize, base + 4 * PageSize,
                   [&](VirtAddr, pt::Pte old, PageSizeKind) {
                       pm.freeData(old.pfn());
                   },
                   nullptr);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MprotectDropsWriteThenRestores)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 2 * PageSize,
                              MmapOptions{.populate = true});
    kernel.mprotect(p, region.start, region.length, ProtRead);
    auto res = kernel.ptOps().walk(p.roots(), region.start);
    EXPECT_FALSE(res.leaf.writable());
    kernel.mprotect(p, region.start, region.length,
                    ProtRead | ProtWrite);
    res = kernel.ptOps().walk(p.roots(), region.start);
    EXPECT_TRUE(res.leaf.writable());
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, WriteAfterMprotectUpgradeViaVmaSucceeds)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, PageSize, MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    // Leaf loses write permission but the VMA still allows writing:
    // the protection fault upgrades the PTE.
    kernel.ptOps().protectRange(p.roots(), region.start,
                                region.start + PageSize, 0, pt::PteWrite,
                                {}, nullptr);
    kernel.flushProcess(p, nullptr);
    ctx.access(tid, region.start, true);
    EXPECT_TRUE(
        kernel.ptOps().walk(p.roots(), region.start).leaf.writable());
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, WriteToReadOnlyVmaPanics)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, PageSize,
                              MmapOptions{.populate = true,
                                          .prot = ProtRead});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    EXPECT_THROW(ctx.access(tid, region.start, true), SimError);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, SpawnThreadLoadsCr3)
{
    Process &p = kernel.createProcess("test", 1);
    kernel.spawnThread(p, 2); // core 2 = socket 1 on tiny machine
    EXPECT_EQ(machine.core(2).cr3(), p.roots().primaryRoot);
    EXPECT_EQ(kernel.processOnCore(2), &p);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, DoubleScheduleOnCorePanics)
{
    Process &a = kernel.createProcess("a", 0);
    Process &b = kernel.createProcess("b", 0);
    kernel.spawnThread(a, 0);
    EXPECT_THROW(kernel.spawnThread(b, 0), SimError);
    kernel.destroyProcess(a);
    kernel.destroyProcess(b);
}

TEST_F(KernelTest, SpawnOnFullSocketFailsRecoverably)
{
    // The seed fatal()ed here; a full socket is now a testable error.
    Process &p = kernel.createProcess("test", 0);
    EXPECT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    EXPECT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    EXPECT_EQ(kernel.spawnThreadOnSocket(p, 0), -1);
    EXPECT_EQ(p.threads().size(), 2u);
    // The kernel is still usable: the other socket has free cores.
    EXPECT_GE(kernel.spawnThreadOnSocket(p, 1), 0);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MigrateToFullSocketFailsWithoutMovingAnything)
{
    Process &hog = kernel.createProcess("hog", 1);
    ASSERT_GE(kernel.spawnThreadOnSocket(hog, 1), 0);
    ASSERT_GE(kernel.spawnThreadOnSocket(hog, 1), 0);

    Process &p = kernel.createProcess("test", 0);
    kernel.mmap(p, 4 * PageSize, MmapOptions{.populate = true});
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    CoreId before = p.threads()[0].core;

    // Socket 1 is full: the seed fatal()ed mid-loop with the thread's
    // core already released; now the call fails atomically.
    EXPECT_FALSE(kernel.migrateProcess(p, 1, /*migrate_data=*/true));
    EXPECT_EQ(p.threads()[0].core, before);
    EXPECT_EQ(kernel.homeSocket(p), 0);
    EXPECT_EQ(kernel.processOnCore(before), &p);

    kernel.destroyProcess(p);
    kernel.destroyProcess(hog);
}

TEST_F(KernelTest, MigrateParksVacatedCores)
{
    // The vacated core must not keep the CR3 loaded: under the Mitosis
    // backend the migration eagerly frees the source page-table
    // replicas, which would leave the old core walkable into freed
    // frames.
    Process &p = kernel.createProcess("test", 0);
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    CoreId old_core = p.threads()[0].core;
    ASSERT_TRUE(kernel.migrateProcess(p, 1, /*migrate_data=*/false));
    EXPECT_FALSE(machine.core(old_core).hasContext());
    EXPECT_TRUE(machine.core(p.threads()[0].core).hasContext());
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, DestroyProcessParksCoreContexts)
{
    // Regression: the seed left a dead process's CR3 loaded on its
    // former cores — hasContext() stayed true against freed page-table
    // frames, so a stray access would walk a recycled root.
    Process &p = kernel.createProcess("test", 0);
    kernel.spawnThread(p, 0);
    kernel.spawnThread(p, 1);
    EXPECT_TRUE(machine.core(0).hasContext());
    EXPECT_TRUE(machine.core(1).hasContext());
    kernel.destroyProcess(p);
    EXPECT_FALSE(machine.core(0).hasContext());
    EXPECT_FALSE(machine.core(1).hasContext());
    EXPECT_EQ(kernel.processOnCore(0), nullptr);
    EXPECT_EQ(kernel.processOnCore(1), nullptr);

    // A successor process can claim the cores cleanly.
    Process &q = kernel.createProcess("next", 0);
    kernel.spawnThread(q, 0);
    EXPECT_EQ(machine.core(0).cr3(), q.roots().primaryRoot);
    kernel.destroyProcess(q);
}

TEST_F(KernelTest, MigrateProcessMovesThreadsAndData)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 8 * PageSize,
                              MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    EXPECT_EQ(ctx.socketOf(tid), 0);

    ASSERT_TRUE(kernel.migrateProcess(p, 1, /*migrate_data=*/true));
    EXPECT_EQ(ctx.socketOf(tid), 1);
    EXPECT_EQ(kernel.homeSocket(p), 1);
    auto &pm = machine.physmem();
    for (VirtAddr va = region.start; va < region.end(); va += PageSize) {
        auto leaf = kernel.ptOps().walk(p.roots(), va);
        EXPECT_EQ(pm.socketOf(leaf.leaf.pfn()), 1);
    }
    // Native backend: page-tables did NOT move (the §3.2 problem).
    EXPECT_EQ(pm.socketOf(p.roots().primaryRoot), 0);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, MigrateWithoutDataLeavesDataBehind)
{
    Process &p = kernel.createProcess("test", 0);
    auto region = kernel.mmap(p, 4 * PageSize,
                              MmapOptions{.populate = true});
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    ASSERT_TRUE(kernel.migrateProcess(p, 1, /*migrate_data=*/false));
    auto &pm = machine.physmem();
    auto leaf = kernel.ptOps().walk(p.roots(), region.start);
    EXPECT_EQ(pm.socketOf(leaf.leaf.pfn()), 0);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, KernelCostChargedForVmaOps)
{
    Process &p = kernel.createProcess("test", 0);
    pvops::KernelCost mmap_cost;
    auto region = kernel.mmap(p, 16 * PageSize,
                              MmapOptions{.populate = true}, &mmap_cost);
    EXPECT_GT(mmap_cost.cycles, 0u);
    EXPECT_GE(mmap_cost.pteWrites, 16u);

    pvops::KernelCost protect_cost;
    kernel.mprotect(p, region.start, region.length, ProtRead,
                    &protect_cost);
    EXPECT_GT(protect_cost.cycles, 0u);

    pvops::KernelCost unmap_cost;
    kernel.munmap(p, region.start, region.length, &unmap_cost);
    EXPECT_GT(unmap_cost.cycles, 0u);
    kernel.destroyProcess(p);
}

TEST_F(KernelTest, ResidentPagesTracked)
{
    Process &p = kernel.createProcess("test", 0);
    kernel.mmap(p, 10 * PageSize, MmapOptions{.populate = true});
    EXPECT_EQ(p.residentPages, 10u);
    kernel.destroyProcess(p);
}

} // namespace
} // namespace mitosim::os
