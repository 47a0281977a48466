/**
 * @file
 * Unit tests for the THP lifecycle subsystem (src/os/thp): khugepaged
 * collapse (full and sparse runs, eligibility, target-node choice),
 * the huge-page split path (explicit, partial-munmap/mprotect gated,
 * madvise boundaries), kcompactd block reclamation, madvise VMA
 * semantics, replica coherence under the Mitosis and lazy backends,
 * and explicit daemon ticks (Kernel::thpTick).
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "src/analysis/pt_dump.h"
#include "src/base/logging.h"
#include "src/check/vmcheck.h"
#include "src/core/lazy_backend.h"
#include "src/core/mitosis.h"
#include "src/os/kernel.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::os
{
namespace
{

constexpr VirtAddr Base = 0x10000000000ull;

/** One kernel under test with a selectable backend and THP config. */
struct Fixture
{
    enum class Backend
    {
        Native,
        Mitosis,
        Lazy,
    };

    explicit Fixture(Backend kind = Backend::Native,
                     thp::ThpConfig thp_cfg = thp::ThpConfig{},
                     const sim::MachineConfig &machine_cfg =
                         sim::MachineConfig::tiny())
        : machine(machine_cfg),
          native(machine.physmem()),
          mitosis(machine.physmem()),
          lazy(machine.physmem()),
          kernel(machine, pick(kind), makeConfig(thp_cfg)),
          proc(kernel.createProcess("thp", 0))
    {
        if (kind == Backend::Mitosis) {
            mitosis.setReplicationMask(proc.roots(), proc.id(),
                                       SocketMask::all(2));
        } else if (kind == Backend::Lazy) {
            lazy.setReplicationMask(proc.roots(), proc.id(),
                                    SocketMask::all(2));
        }
    }

    pvops::PvOps &
    pick(Backend kind)
    {
        switch (kind) {
          case Backend::Native:
            return native;
          case Backend::Mitosis:
            return mitosis;
          case Backend::Lazy:
            return lazy;
        }
        return native;
    }

    static KernelConfig
    makeConfig(const thp::ThpConfig &thp_cfg)
    {
        KernelConfig cfg;
        cfg.thp = thp_cfg;
        return cfg;
    }

    /**
     * A THP-eligible VMA of @p pages 4 KB pages at Base, populated as
     * 4 KB mappings by fragmenting physical memory around the
     * populate (then undoing the fragmentation so blocks are free for
     * collapse).
     */
    void
    populate4K(std::uint64_t pages, bool defrag = true)
    {
        Rng rng(7);
        for (SocketId s = 0; s < machine.numSockets(); ++s)
            machine.physmem().fragment(s, 1.0, rng);
        kernel.mmapFixed(proc, Base, pages * PageSize,
                         MmapOptions{.populate = true, .thp = true,
                                     .prot = ProtRead | ProtWrite});
        if (defrag) {
            for (SocketId s = 0; s < machine.numSockets(); ++s)
                machine.physmem().defragment(s);
        }
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    core::MitosisBackend mitosis;
    core::LazyMitosisBackend lazy;
    Kernel kernel;
    Process &proc;
};

TEST(ThpCollapse, PromotesFullyPopulatedRange)
{
    Fixture f;
    f.populate4K(FramesPerLargePage);
    auto &pm = f.machine.physmem();
    std::uint64_t data_before = pm.stats(0).dataPages;
    std::uint64_t pt_before = pm.stats(0).ptPages + pm.stats(1).ptPages;
    std::uint64_t resident = f.proc.residentPages;

    pvops::KernelCost cost;
    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, &cost));
    EXPECT_GT(cost.cycles, 0u);

    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Large2M);
    EXPECT_EQ(res.leaf.pfn() % FramesPerLargePage, 0u);
    EXPECT_TRUE(res.leaf.writable());

    // 512 small frames became one large page; the leaf table is gone.
    EXPECT_EQ(pm.stats(0).dataPages, data_before - FramesPerLargePage);
    EXPECT_EQ(pm.stats(0).dataLargePages, 1u);
    EXPECT_EQ(pm.stats(0).ptPages + pm.stats(1).ptPages, pt_before - 1);
    EXPECT_EQ(f.proc.residentPages, resident);
    EXPECT_EQ(f.kernel.thp().stats().collapses, 1u);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpCollapse, FailsWithoutAFreeBlockAndCounts)
{
    Fixture f;
    f.populate4K(FramesPerLargePage, /*defrag=*/false);
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.kernel.thp().stats().collapses, 0u);
    EXPECT_EQ(f.kernel.thp().stats().collapseFailedNoBlock, 1u);
}

TEST(ThpCollapse, SparseRunZeroFillsHoles)
{
    Fixture f;
    Rng rng(7);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().fragment(s, 1.0, rng);
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.thp = true});
    // Only 3 of the 512 pages resident.
    f.kernel.populate(f.proc, Base, PageSize, 0);
    f.kernel.populate(f.proc, Base + 17 * PageSize, PageSize, 0);
    f.kernel.populate(f.proc, Base + 511 * PageSize, PageSize, 0);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().defragment(s);
    EXPECT_EQ(f.proc.residentPages, 3u);

    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.proc.residentPages, FramesPerLargePage);
    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Large2M);
}

/** tiny() with 128 2 MB blocks per socket: room for more candidates
 *  than one daemon tick may take. */
sim::MachineConfig
budgetMachine()
{
    sim::MachineConfig cfg = sim::MachineConfig::tiny();
    cfg.topo.memPerSocket = 256ull << 20;
    return cfg;
}

TEST(ThpCollapse, OneTickCollapsesTheBudgetAndResumes)
{
    thp::ThpConfig cfg;
    cfg.khugepaged = true;
    Fixture f(Fixture::Backend::Native, cfg, budgetMachine());
    constexpr std::uint64_t Ranges = thp::CollapsesPerTick + 16;
    Rng rng(7);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().fragment(s, 1.0, rng);
    f.kernel.mmapFixed(f.proc, Base, Ranges * LargePageSize,
                       MmapOptions{.thp = true});
    // One resident 4 KB page per range: each is a collapse candidate.
    for (std::uint64_t r = 0; r < Ranges; ++r)
        f.kernel.populate(f.proc, Base + r * LargePageSize, PageSize, 0);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().defragment(s);

    const thp::ThpStats &ts = f.kernel.thp().stats();
    f.kernel.thpTick();
    EXPECT_EQ(ts.collapses, thp::CollapsesPerTick);
    EXPECT_EQ(ts.rangesScanned, thp::CollapsesPerTick);
    f.kernel.thpTick(); // resumes at the first range left over
    EXPECT_EQ(ts.collapses, Ranges);
    EXPECT_EQ(f.kernel.thp().coverage(f.proc), 1.0);
}

TEST(ThpCollapse, TargetsMajoritySocket)
{
    Fixture f;
    Rng rng(7);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().fragment(s, 1.0, rng);
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.thp = true});
    // Majority of the resident pages on socket 1, a minority on 0.
    CoreId core0 = f.machine.topology().firstCoreOf(0);
    CoreId core1 = f.machine.topology().firstCoreOf(1);
    f.kernel.populate(f.proc, Base, 4 * PageSize, core0);
    f.kernel.populate(f.proc, Base + 4 * PageSize, 12 * PageSize, core1);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().defragment(s);

    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_TRUE(res.mapped);
    EXPECT_EQ(f.machine.physmem().socketOf(res.leaf.pfn()), 1);
}

TEST(ThpCollapse, RefusesUnmappedAndAlreadyHugeRanges)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    // Populated without fragmentation: already one huge page.
    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_EQ(res.size, PageSizeKind::Large2M);
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    // And a hole below any VMA is refused too.
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base + (64ull << 20),
                                           nullptr));
}

TEST(ThpSplit, DemotesToSameFrames)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    pt::WalkResult huge = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_EQ(huge.size, PageSizeKind::Large2M);
    Pfn head = huge.leaf.pfn();
    auto &pm = f.machine.physmem();
    std::uint64_t resident = f.proc.residentPages;

    EXPECT_TRUE(f.kernel.thp().splitAt(f.proc, Base + 5 * PageSize,
                                       nullptr));
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_EQ(pm.stats(0).dataLargePages, 0u);
    EXPECT_EQ(pm.stats(0).dataPages, FramesPerLargePage);
    EXPECT_EQ(f.proc.residentPages, resident);

    for (unsigned i = 0; i < FramesPerLargePage; i += 101) {
        pt::WalkResult res =
            f.kernel.ptOps().walk(f.proc.roots(), Base + i * PageSize);
        ASSERT_TRUE(res.mapped) << i;
        EXPECT_EQ(res.size, PageSizeKind::Base4K) << i;
        EXPECT_EQ(res.leaf.pfn(), head + i) << i;
        EXPECT_TRUE(res.leaf.writable()) << i;
    }

    // The frames are individually freeable now.
    pvops::KernelCost cost;
    f.kernel.munmap(f.proc, Base, PageSize, &cost);
    EXPECT_FALSE(f.kernel.ptOps().walk(f.proc.roots(), Base).mapped);
    EXPECT_TRUE(f.kernel.ptOps()
                    .walk(f.proc.roots(), Base + PageSize)
                    .mapped);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpSplit, PartialMunmapKeepsRestWhenGateOn)
{
    thp::ThpConfig cfg;
    cfg.splitPartial = true;
    Fixture f(Fixture::Backend::Native, cfg);
    f.kernel.mmapFixed(f.proc, Base, 2 * LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    std::uint64_t resident = f.proc.residentPages;

    // Unmap one 4 KB page in the middle of the first huge page.
    f.kernel.munmap(f.proc, Base + 7 * PageSize, PageSize);
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_FALSE(
        f.kernel.ptOps().walk(f.proc.roots(), Base + 7 * PageSize)
            .mapped);
    EXPECT_TRUE(f.kernel.ptOps().walk(f.proc.roots(), Base).mapped);
    EXPECT_TRUE(f.kernel.ptOps()
                    .walk(f.proc.roots(), Base + 8 * PageSize)
                    .mapped);
    // The second huge page is untouched.
    pt::WalkResult second =
        f.kernel.ptOps().walk(f.proc.roots(), Base + LargePageSize);
    ASSERT_TRUE(second.mapped);
    EXPECT_EQ(second.size, PageSizeKind::Large2M);
    // residentPages is cumulative (pages ever faulted in): unchanged.
    EXPECT_EQ(f.proc.residentPages, resident);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpSplit, PartialMunmapZapsWholeLeafWhenGateOff)
{
    Fixture f; // splitPartial defaults off: seed semantics
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    f.kernel.munmap(f.proc, Base + 7 * PageSize, PageSize);
    EXPECT_EQ(f.kernel.thp().stats().splits, 0u);
    // The whole 2 MB mapping went away (the seed's whole-leaf zap).
    EXPECT_FALSE(f.kernel.ptOps().walk(f.proc.roots(), Base).mapped);
    EXPECT_FALSE(f.kernel.ptOps()
                     .walk(f.proc.roots(), Base + 8 * PageSize)
                     .mapped);
}

TEST(ThpSplit, PartialMprotectDowngradesOnlyTheRange)
{
    thp::ThpConfig cfg;
    cfg.splitPartial = true;
    Fixture f(Fixture::Backend::Native, cfg);
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    f.kernel.mprotect(f.proc, Base, 16 * PageSize, ProtRead);
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_FALSE(
        f.kernel.ptOps().walk(f.proc.roots(), Base).leaf.writable());
    EXPECT_TRUE(f.kernel.ptOps()
                    .walk(f.proc.roots(), Base + 16 * PageSize)
                    .leaf.writable());
    const Vma *head = f.proc.findVma(Base);
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->prot, std::uint64_t{ProtRead});
    EXPECT_EQ(head->end, Base + 16 * PageSize);
}

TEST(ThpMadvise, TogglesEligibilityWithVmaSplitAndMerge)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, 8 * LargePageSize,
                       MmapOptions{.thp = false});
    ASSERT_EQ(f.proc.vmas().size(), 1u);

    f.kernel.madvise(f.proc, Base + 2 * LargePageSize,
                     2 * LargePageSize, Madvise::Huge);
    EXPECT_EQ(f.proc.vmas().size(), 3u);
    EXPECT_FALSE(f.proc.findVma(Base)->thpEnabled);
    EXPECT_TRUE(
        f.proc.findVma(Base + 2 * LargePageSize)->thpEnabled);
    EXPECT_FALSE(
        f.proc.findVma(Base + 4 * LargePageSize)->thpEnabled);

    // Huge faults now succeed inside the advised window only.
    f.kernel.populate(f.proc, Base + 2 * LargePageSize, LargePageSize,
                      0);
    EXPECT_EQ(f.kernel.ptOps()
                  .walk(f.proc.roots(), Base + 2 * LargePageSize)
                  .size,
              PageSizeKind::Large2M);
    f.kernel.populate(f.proc, Base, PageSize, 0);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);

    // NoHuge merges the pieces back into one VMA... except the 2 MB
    // page already mapped stays mapped (Linux semantics: the advice
    // gates future faults and collapse, not existing mappings).
    f.kernel.madvise(f.proc, Base + 2 * LargePageSize,
                     2 * LargePageSize, Madvise::NoHuge);
    EXPECT_EQ(f.proc.vmas().size(), 1u);
    EXPECT_EQ(f.kernel.ptOps()
                  .walk(f.proc.roots(), Base + 2 * LargePageSize)
                  .size,
              PageSizeKind::Large2M);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpMadvise, EnablesCollapseAfterTheFact)
{
    // The satellite case: memory mapped and populated 4 KB *without*
    // THP, then madvise(Huge) + khugepaged promote it.
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = false});
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));

    f.kernel.madvise(f.proc, Base, LargePageSize, Madvise::Huge);
    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Large2M);
}

TEST(ThpMadvise, BoundaryInsideHugePageDemotesIt)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    f.kernel.madvise(f.proc, Base, LargePageSize / 2, Madvise::NoHuge);
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);
    EXPECT_EQ(f.proc.vmas().size(), 2u);
}

TEST(ThpCompaction, ReclaimsBlocksAndPreservesMappings)
{
    thp::ThpConfig cfg;
    cfg.kcompactd = true;
    Fixture f(Fixture::Backend::Native, cfg);
    auto &pm = f.machine.physmem();

    Rng rng(11);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        pm.fragment(s, 1.0, rng);
    ASSERT_EQ(pm.freeLargeBlocks(0), 0u);
    ASSERT_EQ(pm.largeBlockFreeRatio(0), 0.0);

    // A few mapped pages land in otherwise pin-only blocks.
    f.kernel.mmapFixed(f.proc, Base, 8 * PageSize,
                       MmapOptions{.populate = true});
    std::vector<Pfn> before;
    for (unsigned i = 0; i < 8; ++i)
        before.push_back(f.kernel.ptOps()
                             .walk(f.proc.roots(), Base + i * PageSize)
                             .leaf.pfn());

    f.kernel.thpTick();
    const thp::ThpStats &ts = f.kernel.thp().stats();
    EXPECT_GT(ts.compactionBlocksReclaimed, 0u);
    EXPECT_GT(ts.compactionPagesMoved, 0u);
    EXPECT_GT(pm.freeLargeBlocks(0) + pm.freeLargeBlocks(1), 0u);
    EXPECT_GT(pm.largeBlockFreeRatio(0), 0.0);

    // Every mapping survived (possibly on a different frame), still
    // owned and allocated.
    for (unsigned i = 0; i < 8; ++i) {
        pt::WalkResult res =
            f.kernel.ptOps().walk(f.proc.roots(), Base + i * PageSize);
        ASSERT_TRUE(res.mapped) << i;
        const mem::PageMeta &m = pm.meta(res.leaf.pfn());
        EXPECT_EQ(m.type, mem::FrameType::Data) << i;
        EXPECT_EQ(m.owner, f.proc.id()) << i;
    }
    (void)before;
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpCompaction, MakesCollapsePossibleAgain)
{
    // The full recovery loop in miniature: fragmentation defeats
    // collapse, kcompactd reconstitutes a block, collapse succeeds.
    thp::ThpConfig cfg;
    cfg.khugepaged = true;
    cfg.kcompactd = true;
    Fixture f(Fixture::Backend::Native, cfg);
    f.populate4K(FramesPerLargePage, /*defrag=*/false);

    ASSERT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    f.kernel.thpTick(); // compacts, then khugepaged collapses
    EXPECT_GT(f.kernel.thp().stats().collapses, 0u);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Large2M);
    EXPECT_GT(f.kernel.thp().stats().daemonCycles, 0u);
}

TEST(ThpCompaction, OneTickDrainsTheBudgetPerSocket)
{
    thp::ThpConfig cfg;
    cfg.kcompactd = true;
    Fixture f(Fixture::Backend::Native, cfg, budgetMachine());
    auto &pm = f.machine.physmem();
    Rng rng(11);
    // One filler in every free block: each is a drainable candidate.
    for (SocketId s = 0; s < f.machine.numSockets(); ++s) {
        pm.fragment(s, 1.0, rng);
        ASSERT_EQ(pm.freeLargeBlocks(s), 0u);
        ASSERT_GT(pm.allocator(s).numBlocks(), thp::CompactBlocksPerTick);
    }

    f.kernel.thpTick();
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        EXPECT_EQ(pm.freeLargeBlocks(s), thp::CompactBlocksPerTick) << s;
    EXPECT_EQ(f.kernel.thp().stats().compactionBlocksReclaimed,
              2u * thp::CompactBlocksPerTick);
}

TEST(ThpCoverage, TracksPromotionAndDemotion)
{
    Fixture f;
    f.populate4K(2 * FramesPerLargePage);
    EXPECT_EQ(f.kernel.thp().coverage(f.proc), 0.0);
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_NEAR(f.kernel.thp().coverage(f.proc), 0.5, 1e-9);
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base + LargePageSize,
                                          nullptr));
    EXPECT_NEAR(f.kernel.thp().coverage(f.proc), 1.0, 1e-9);
    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base, nullptr));
    EXPECT_NEAR(f.kernel.thp().coverage(f.proc), 0.5, 1e-9);
}

/** Walk one replica tree raw (the tree a core on that socket uses). */
pt::Pte
walkReplica(mem::PhysicalMemory &pm, Pfn root, VirtAddr va,
            PageSizeKind *size_out)
{
    Pfn table = root;
    for (int level = 4; level >= 1; --level) {
        pt::Pte entry{pm.table(table)[ptIndex(va, ptLevel(level))]};
        if (!entry.present())
            return pt::Pte{};
        if (level == 2 && entry.huge()) {
            *size_out = PageSizeKind::Large2M;
            return entry;
        }
        if (level == 1) {
            *size_out = PageSizeKind::Base4K;
            return entry;
        }
        table = entry.pfn();
    }
    return pt::Pte{};
}

TEST(ThpMitosis, CollapseAndSplitKeepEveryReplicaCoherent)
{
    Fixture f(Fixture::Backend::Mitosis);
    f.populate4K(FramesPerLargePage);
    auto &pm = f.machine.physmem();

    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.mitosis.stats().hugeCollapses, 1u);

    // Every replica root resolves the collapsed range to the same
    // huge leaf, and pt_dump agrees on the leaf population per root.
    analysis::PtAnalyzer analyzer(pm, f.kernel.ptOps());
    std::uint64_t primary =
        analyzer.snapshot(f.proc.roots()).totalLeafPtes();
    pt::WalkResult prim = f.kernel.ptOps().walk(f.proc.roots(), Base);
    for (SocketId s = 0; s < 2; ++s) {
        EXPECT_EQ(analyzer.snapshotFor(f.proc.roots(), s)
                      .totalLeafPtes(),
                  primary)
            << "socket " << s;
        PageSizeKind size = PageSizeKind::Base4K;
        pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(s), Base,
                                   &size);
        ASSERT_TRUE(leaf.present()) << s;
        EXPECT_EQ(size, PageSizeKind::Large2M) << s;
        EXPECT_EQ(leaf.pfn(), prim.leaf.pfn()) << s;
    }

    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base + PageSize,
                                       nullptr));
    EXPECT_EQ(f.mitosis.stats().hugeSplits, 1u);
    prim = f.kernel.ptOps().walk(f.proc.roots(), Base + 3 * PageSize);
    ASSERT_TRUE(prim.mapped);
    for (SocketId s = 0; s < 2; ++s) {
        PageSizeKind size = PageSizeKind::Large2M;
        pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(s),
                                   Base + 3 * PageSize, &size);
        ASSERT_TRUE(leaf.present()) << s;
        EXPECT_EQ(size, PageSizeKind::Base4K) << s;
        EXPECT_EQ(leaf.pfn(), prim.leaf.pfn()) << s;
        // The split leaf table is replicated: each root's L2 slot
        // must reference the copy local to its socket.
        Pfn root = f.proc.roots().rootFor(s);
        Pfn table = root;
        for (int level = 4; level > 2; --level) {
            table = pt::Pte{pm.table(table)[ptIndex(Base,
                                                    ptLevel(level))]}
                        .pfn();
        }
        pt::Pte l2{pm.table(table)[ptIndex(Base, PtLevel::L2)]};
        ASSERT_TRUE(l2.present() && !l2.huge()) << s;
        EXPECT_EQ(pm.socketOf(l2.pfn()), s) << s;
    }
    f.kernel.destroyProcess(f.proc);
}

/**
 * kcompactd's data-move path: nearly-free blocks holding the mapped
 * 4 KB frames of two processes, compacted over three ticks that are
 * interleaved with munmap/mprotect. After each tick every surviving
 * page keeps its VA and flags in every replica tree, frames are
 * conserved, every candidate block made only of such frames was
 * drained, and the tick's reverse map was built (and, in Debug
 * builds, cross-checked against a full rebuild).
 */
void
compactMixedOwners(Fixture::Backend kind)
{
    thp::ThpConfig cfg;
    cfg.kcompactd = true;
    Fixture f(kind, cfg);
    auto &pm = f.machine.physmem();
    auto &ops = f.kernel.ptOps();
    Process &other = f.kernel.createProcess("thp2", 0);
    if (kind == Fixture::Backend::Mitosis) {
        f.mitosis.setReplicationMask(other.roots(), other.id(),
                                     SocketMask::all(2));
    }
    Process *const owners[2] = {&f.proc, &other};
    const obs::Counter &builds =
        f.machine.metrics().counter("thp_compaction_rmap_builds");
    const obs::Counter &entries =
        f.machine.metrics().counter("thp_compaction_rmap_entries");
    check::Checker checker(f.kernel, check::CheckConfig{});

    constexpr std::uint64_t Pages = 1024; // per owner, per round
    constexpr std::uint64_t Chunk = 8;    // pages per mmap
    constexpr std::uint64_t Stride = 32;  // one survivor per stride
    constexpr std::uint64_t NoAd = ~(pt::PtePfnMask | pt::PteAdMask);

    struct Page
    {
        Process *owner;
        VirtAddr va;
    };
    std::vector<Page> kept;
    std::uint64_t checks = 0;

    for (unsigned round = 0; round < 3; ++round) {
        // Alternate the owners chunk by chunk so every data block
        // holds frames of both, then thin to one page per stride:
        // nearly-free blocks are kcompactd's candidates.
        const VirtAddr base = Base + round * 4 * LargePageSize;
        for (std::uint64_t i = 0; i < Pages; i += Chunk) {
            for (Process *p : owners) {
                f.kernel.mmapFixed(*p, base + i * PageSize,
                                   Chunk * PageSize,
                                   MmapOptions{.populate = true});
            }
        }
        for (Process *p : owners) {
            for (std::uint64_t i = 0; i < Pages; i += Stride) {
                f.kernel.munmap(*p, base + (i + 1) * PageSize,
                                (Stride - 1) * PageSize);
                if ((i / Stride) % 2)
                    f.kernel.mprotect(*p, base + i * PageSize, PageSize,
                                      ProtRead);
                kept.push_back({p, base + i * PageSize});
            }
        }
        // Earlier survivors have moved: unmap some, re-protect others.
        if (round > 0) {
            for (int n = 0; n < 4; ++n) {
                f.kernel.munmap(*kept.front().owner, kept.front().va,
                                PageSize);
                kept.erase(kept.begin());
            }
            f.kernel.mprotect(*kept[1].owner, kept[1].va, PageSize,
                              ProtRead | ProtWrite);
        }

        std::vector<pt::Pte> before;
        std::set<Pfn> mapped;
        for (const Page &pg : kept) {
            pt::WalkResult res = ops.walk(pg.owner->roots(), pg.va);
            ASSERT_TRUE(res.mapped);
            before.push_back(res.leaf);
            mapped.insert(res.leaf.pfn());
        }
        // Candidate blocks that only pins and our pages occupy: the
        // tick must drain every one of them.
        std::vector<std::pair<SocketId, std::uint64_t>> drainable;
        for (SocketId s = 0; s < 2; ++s) {
            const mem::FrameAllocator &alloc = pm.allocator(s);
            for (std::uint64_t b = 0; b < alloc.numBlocks(); ++b) {
                std::uint32_t used = alloc.blockUsedCount(b);
                if (used == 0 || used > thp::CompactMaxUsed)
                    continue;
                bool ours = true;
                alloc.forEachAllocatedInBlock(b, [&](Pfn p) {
                    ours = ours && (pm.isFragPinned(p) || mapped.count(p));
                });
                if (ours)
                    drainable.emplace_back(s, b);
            }
        }
        ASSERT_FALSE(drainable.empty()) << round;
        const std::uint64_t free_before = pm.freeFrames(0) +
                                          pm.freeFrames(1);

        f.kernel.thpTick();

        EXPECT_EQ(checker.runAll("kcompactd data moves"), 0u) << round;
        EXPECT_EQ(pm.freeFrames(0) + pm.freeFrames(1), free_before)
            << round;
        for (const auto &[s, b] : drainable)
            EXPECT_EQ(pm.allocator(s).blockUsedCount(b), 0u)
                << "round " << round << " socket " << s << " block " << b;
        bool moved[2] = {false, false};
        for (std::size_t i = 0; i < kept.size(); ++i) {
            const Page &pg = kept[i];
            pt::WalkResult res = ops.walk(pg.owner->roots(), pg.va);
            ASSERT_TRUE(res.mapped) << round << " " << i;
            ASSERT_EQ(res.size, PageSizeKind::Base4K);
            EXPECT_EQ(res.leaf.raw() & ~pt::PtePfnMask,
                      before[i].raw() & ~pt::PtePfnMask)
                << round << " " << i;
            const mem::PageMeta &m = pm.meta(res.leaf.pfn());
            EXPECT_EQ(m.type, mem::FrameType::Data);
            EXPECT_EQ(m.owner, pg.owner->id());
            for (SocketId s = 0; s < 2; ++s) {
                PageSizeKind size = PageSizeKind::Large2M;
                pt::Pte leaf = walkReplica(
                    pm, pg.owner->roots().rootFor(s), pg.va, &size);
                EXPECT_EQ(size, PageSizeKind::Base4K);
                EXPECT_EQ(leaf.pfn(), res.leaf.pfn()) << s;
                EXPECT_EQ(leaf.raw() & NoAd, res.leaf.raw() & NoAd) << s;
            }
            if (res.leaf.pfn() != before[i].pfn())
                moved[pg.owner == &other] = true;
        }
        EXPECT_TRUE(moved[0] && moved[1]) << round;
        EXPECT_GT(builds.value, 0u);
        EXPECT_GT(entries.value, 0u);
#ifdef NDEBUG
        EXPECT_EQ(f.kernel.thp().rmapCrossChecks(), checks); // stays 0
#else
        EXPECT_GT(f.kernel.thp().rmapCrossChecks(), checks) << round;
#endif
        checks = f.kernel.thp().rmapCrossChecks();
    }
    f.kernel.destroyProcess(other);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpCompaction, MovesDataOfTwoOwnersNative)
{
    compactMixedOwners(Fixture::Backend::Native);
}

TEST(ThpCompaction, MovesDataOfTwoOwnersMitosis)
{
    compactMixedOwners(Fixture::Backend::Mitosis);
}

TEST(ThpLazy, CollapseIsEagerAndSplitDrainsAtFaultTime)
{
    Fixture f(Fixture::Backend::Lazy);
    f.populate4K(FramesPerLargePage);
    auto &pm = f.machine.physmem();

    // Drain whatever the populate queued so we start coherent.
    for (SocketId s = 0; s < 2; ++s)
        f.lazy.onTranslationFault(f.proc.roots(), s, Base, nullptr);

    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    // A collapse rewrites a *present* slot: eager in every replica,
    // and the dead leaf table's queued messages were purged.
    for (SocketId s = 0; s < 2; ++s) {
        PageSizeKind size = PageSizeKind::Base4K;
        pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(s), Base,
                                   &size);
        ASSERT_TRUE(leaf.present()) << s;
        EXPECT_EQ(size, PageSizeKind::Large2M) << s;
    }

    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base, nullptr));
    // The fresh leaf table's 512 installs are lazy: a remote replica
    // may still see an empty table until its queue drains at fault
    // time — exactly the library-OS design.
    SocketId remote = 1;
    bool drained = f.lazy.onTranslationFault(f.proc.roots(), remote,
                                             Base + 9 * PageSize,
                                             nullptr);
    (void)drained; // may already be coherent if nothing was queued
    PageSizeKind size = PageSizeKind::Large2M;
    pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(remote),
                               Base + 9 * PageSize, &size);
    ASSERT_TRUE(leaf.present());
    EXPECT_EQ(size, PageSizeKind::Base4K);
    EXPECT_EQ(f.lazy.pendingFor(remote), 0u);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpTick, DisabledDaemonsAreANoop)
{
    Fixture f;
    f.populate4K(FramesPerLargePage);
    f.kernel.thpTick();
    const thp::ThpStats &ts = f.kernel.thp().stats();
    EXPECT_EQ(ts.collapses, 0u);
    EXPECT_EQ(ts.rangesScanned, 0u);
    EXPECT_EQ(ts.compactionPagesMoved, 0u);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);
}

TEST(ThpTeardown, LifecycleBalancesPhysicalMemory)
{
    // Collapse + split + partial munmap, then destroy: every frame
    // must come back.
    thp::ThpConfig cfg;
    cfg.splitPartial = true;
    Fixture f(Fixture::Backend::Mitosis, cfg);
    auto &pm = f.machine.physmem();
    std::uint64_t free0 = pm.freeFrames(0);
    std::uint64_t free1 = pm.freeFrames(1);

    f.populate4K(2 * FramesPerLargePage);
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base + LargePageSize,
                                          nullptr));
    f.kernel.munmap(f.proc, Base + 3 * PageSize, 5 * PageSize);
    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base + LargePageSize,
                                       nullptr));
    f.kernel.destroyProcess(f.proc);

    Process &fresh = f.kernel.createProcess("again", 0);
    f.kernel.destroyProcess(fresh);
    // The baselines were taken with f.proc alive, whose replicated
    // root held one frame per socket; with no process left those come
    // back too.
    EXPECT_EQ(pm.freeFrames(0), free0 + 1);
    EXPECT_EQ(pm.freeFrames(1), free1 + 1);
    EXPECT_EQ(pm.stats(0).dataPages, 0u);
    EXPECT_EQ(pm.stats(0).dataLargePages, 0u);
}

} // namespace
} // namespace mitosim::os
