/**
 * @file
 * Unit tests for pt::PageTableOps with the native backend: tree
 * construction, walks, unmap/protect, iteration, destruction, and the
 * three page-table placement policies of §3.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/mem/physical_memory.h"
#include "src/os/kernel.h"
#include "src/pt/operations.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::pt
{
namespace
{

numa::TopologyConfig
smallTopo()
{
    numa::TopologyConfig cfg;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 2;
    cfg.memPerSocket = 16ull << 20;
    return cfg;
}

/** unmapRange callback for frames the test frees itself. */
void
keepFrames(VirtAddr, Pte, PageSizeKind)
{
}

class PtOpsTest : public ::testing::Test
{
  protected:
    PtOpsTest()
        : topo(smallTopo()), pm(topo), native(pm), ops(pm, native)
    {
        EXPECT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
    }

    ~PtOpsTest() override { ops.destroy(roots, nullptr); }

    Pfn
    dataFrame(SocketId s)
    {
        auto pfn = pm.allocData(s, 1);
        EXPECT_TRUE(pfn.has_value());
        frames.push_back(*pfn);
        return *pfn;
    }

    numa::Topology topo;
    mem::PhysicalMemory pm;
    pvops::NativeBackend native;
    PageTableOps ops;
    RootSet roots;
    PtPlacementPolicy policy;
    std::vector<Pfn> frames;
};

TEST_F(PtOpsTest, CreateRootPlacesOnRequestedSocket)
{
    EXPECT_NE(roots.primaryRoot, InvalidPfn);
    EXPECT_EQ(pm.socketOf(roots.primaryRoot), 0);
    EXPECT_EQ(pm.meta(roots.primaryRoot).level, 4);
    EXPECT_EQ(roots.rootFor(3), roots.primaryRoot);
}

TEST_F(PtOpsTest, Map4KThenWalkFindsLeaf)
{
    Pfn data = dataFrame(1);
    VirtAddr va = 0x12345000;
    ASSERT_TRUE(ops.map4K(roots, 1, va, data, PteWrite | PteUser, policy,
                          0, nullptr));
    WalkResult res = ops.walk(roots, va);
    EXPECT_TRUE(res.mapped);
    EXPECT_EQ(res.leaf.pfn(), data);
    EXPECT_TRUE(res.leaf.writable());
    EXPECT_EQ(res.size, PageSizeKind::Base4K);
}

TEST_F(PtOpsTest, WalkUnmappedReturnsNotMapped)
{
    EXPECT_FALSE(ops.walk(roots, 0xdead000).mapped);
}

TEST_F(PtOpsTest, MapAllocatesIntermediateLevels)
{
    Pfn data = dataFrame(0);
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull, data, PteWrite, policy,
                          0, nullptr));
    // Root + L3 + L2 + L1 = 4 pages.
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s) {
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    }
    EXPECT_EQ(total, 4u);
}

TEST_F(PtOpsTest, AdjacentPagesShareIntermediates)
{
    ASSERT_TRUE(ops.map4K(roots, 1, 0x1000, dataFrame(0), PteWrite, policy,
                          0, nullptr));
    ASSERT_TRUE(ops.map4K(roots, 1, 0x2000, dataFrame(0), PteWrite, policy,
                          0, nullptr));
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s) {
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    }
    EXPECT_EQ(total, 4u); // still one chain
}

TEST_F(PtOpsTest, Map2MSetsHugeLeafAtL2)
{
    auto head = pm.allocDataLarge(2, 1);
    ASSERT_TRUE(head.has_value());
    VirtAddr va = 0x40000000ull; // 2MB aligned
    ASSERT_TRUE(ops.map2M(roots, 1, va, *head, PteWrite, policy, 0,
                          nullptr));
    WalkResult res = ops.walk(roots, va);
    EXPECT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Large2M);
    EXPECT_TRUE(res.leaf.huge());
    EXPECT_EQ(res.leaf.pfn(), *head);
    // Walking an interior address reaches the same leaf.
    WalkResult mid = ops.walk(roots, va + 123 * PageSize);
    EXPECT_TRUE(mid.mapped);
    EXPECT_EQ(mid.leaf.pfn(), *head);
    pm.freeDataLarge(*head);
    ops.unmapRange(roots, va, va + PageSize, keepFrames, nullptr);
}

TEST_F(PtOpsTest, Map2MRejectsUnaligned)
{
    auto head = pm.allocDataLarge(0, 1);
    ASSERT_TRUE(head.has_value());
    EXPECT_THROW(ops.map2M(roots, 1, 0x1000, *head, PteWrite, policy, 0,
                           nullptr),
                 SimError);
    pm.freeDataLarge(*head);
}

TEST_F(PtOpsTest, UnmapClearsLeafOnly)
{
    VirtAddr va = 0x5000;
    ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0), PteWrite, policy, 0,
                          nullptr));
    Pfn data = ops.walk(roots, va).leaf.pfn();
    std::vector<Pfn> cleared;
    EXPECT_EQ(ops.unmapRange(roots, va, va + PageSize,
                             [&](VirtAddr, Pte old, PageSizeKind) {
                                 cleared.push_back(old.pfn());
                             },
                             nullptr),
              1u);
    EXPECT_EQ(cleared, std::vector<Pfn>{data}); // reports the old leaf
    EXPECT_FALSE(ops.walk(roots, va).mapped);
    // Intermediate tables are retained (Linux-style).
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    EXPECT_EQ(total, 4u);
}

TEST_F(PtOpsTest, UnmapMissingIsNoop)
{
    EXPECT_EQ(ops.unmapRange(roots, 0x7777000, 0x7778000, keepFrames,
                             nullptr),
              0u);
}

TEST_F(PtOpsTest, ProtectTogglesWritable)
{
    VirtAddr va = 0x9000;
    ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0), PteWrite, policy, 0,
                          nullptr));
    ASSERT_EQ(ops.protectRange(roots, va, va + PageSize, 0, PteWrite, {},
                               nullptr),
              1u);
    EXPECT_FALSE(ops.walk(roots, va).leaf.writable());
    ASSERT_EQ(ops.protectRange(roots, va, va + PageSize, PteWrite, 0, {},
                               nullptr),
              1u);
    EXPECT_TRUE(ops.walk(roots, va).leaf.writable());
}

TEST_F(PtOpsTest, ForEachLeafVisitsAllMappings)
{
    std::set<VirtAddr> expect;
    for (int i = 0; i < 20; ++i) {
        VirtAddr va = 0x100000ull + static_cast<VirtAddr>(i) * PageSize;
        ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0), PteWrite, policy,
                              0, nullptr));
        expect.insert(va);
    }
    std::set<VirtAddr> seen;
    ops.forEachLeaf(roots, [&](VirtAddr va, PteLoc, Pte, PageSizeKind) {
        seen.insert(va);
    });
    EXPECT_EQ(seen, expect);
}

TEST_F(PtOpsTest, ForEachTableCountsMatchLiveStats)
{
    ASSERT_TRUE(ops.map4K(roots, 1, 0x1000, dataFrame(0), PteWrite, policy,
                          0, nullptr));
    ASSERT_TRUE(ops.map4K(roots, 1, 0x80000000ull, dataFrame(0), PteWrite,
                          policy, 0, nullptr));
    std::map<int, int> per_level;
    ops.forEachTable(roots, [&](Pfn, int level) { ++per_level[level]; });
    EXPECT_EQ(per_level[4], 1);
    EXPECT_EQ(per_level[3], 1); // same L3 (both under first 512GB)
    EXPECT_EQ(per_level[2], 2);
    EXPECT_EQ(per_level[1], 2);
}

TEST_F(PtOpsTest, DestroyFreesEverything)
{
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(ops.map4K(roots, 1,
                              0x200000ull + static_cast<VirtAddr>(i) *
                                                PageSize,
                              dataFrame(0), PteWrite, policy, 0, nullptr));
    }
    ops.destroy(roots, nullptr);
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    EXPECT_EQ(total, 0u);
    EXPECT_EQ(roots.primaryRoot, InvalidPfn);
    // Re-create so the fixture destructor has something to destroy.
    EXPECT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
}

TEST_F(PtOpsTest, FirstTouchPlacementFollowsFaultingSocket)
{
    // Map pages "from" socket 2: new PT pages land there.
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull, dataFrame(2), PteWrite,
                          policy, 2, nullptr));
    // The L3/L2/L1 created by this call are on socket 2 (root existed).
    EXPECT_EQ(pm.ptPagesAt(2, 3), 1u);
    EXPECT_EQ(pm.ptPagesAt(2, 2), 1u);
    EXPECT_EQ(pm.ptPagesAt(2, 1), 1u);
}

TEST_F(PtOpsTest, FixedPlacementOverridesFaultingSocket)
{
    policy.mode = PtPlacement::Fixed;
    policy.fixedSocket = 3;
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull, dataFrame(0), PteWrite,
                          policy, 0, nullptr));
    EXPECT_EQ(pm.ptPagesAt(3, 3), 1u);
    EXPECT_EQ(pm.ptPagesAt(3, 2), 1u);
    EXPECT_EQ(pm.ptPagesAt(3, 1), 1u);
}

TEST_F(PtOpsTest, InterleavePlacementSpreadsTables)
{
    policy.mode = PtPlacement::Interleave;
    // Map pages in distinct 2MB regions so each needs a fresh L1 table.
    for (int i = 0; i < 8; ++i) {
        VirtAddr va = 0x80000000ull +
                      static_cast<VirtAddr>(i) * LargePageSize;
        ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0), PteWrite, policy,
                              0, nullptr));
    }
    // L1 tables must be spread over all four sockets.
    int sockets_with_l1 = 0;
    for (SocketId s = 0; s < 4; ++s) {
        if (pm.ptPagesAt(s, 1) > 0)
            ++sockets_with_l1;
    }
    EXPECT_EQ(sockets_with_l1, 4);
}

TEST_F(PtOpsTest, KernelCostChargesForPtAllocations)
{
    pvops::KernelCost cost;
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull, dataFrame(0), PteWrite,
                          policy, 0, &cost));
    EXPECT_EQ(cost.ptPagesAllocated, 3u); // L3, L2, L1
    EXPECT_GT(cost.cycles, 0u);
    EXPECT_GE(cost.pteWrites, 4u); // 3 intermediate links + leaf
}

TEST_F(PtOpsTest, CreateRootTwicePanics)
{
    RootSet other;
    EXPECT_TRUE(ops.createRoot(other, 2, 1, nullptr));
    EXPECT_THROW(ops.createRoot(other, 2, 1, nullptr), SimError);
    ops.destroy(other, nullptr);
}

TEST_F(PtOpsTest, ProtectRangeTouchesIntersectingLeavesInOrder)
{
    // Sparse layout crossing an L1-table boundary (2 MB), with a hole.
    VirtAddr base = 0x40000000ull;
    for (std::uint64_t page : {0ull, 1ull, 3ull, 511ull, 512ull}) {
        ASSERT_TRUE(ops.map4K(roots, 1, base + page * PageSize,
                              dataFrame(0), PteWrite, policy, 0,
                              nullptr));
    }

    std::vector<VirtAddr> seen;
    EXPECT_EQ(ops.protectRange(roots, base + PageSize,
                               base + 513 * PageSize, 0, PteWrite,
                               [&](VirtAddr va, PageSizeKind sz) {
                                   EXPECT_EQ(sz, PageSizeKind::Base4K);
                                   seen.push_back(va);
                               },
                               nullptr),
              4u);
    EXPECT_EQ(seen, (std::vector<VirtAddr>{base + 1 * PageSize,
                                           base + 3 * PageSize,
                                           base + 511 * PageSize,
                                           base + 512 * PageSize}));
    // The leaves outside the range keep their flags.
    EXPECT_TRUE(ops.walk(roots, base).leaf.writable());
    for (VirtAddr va : seen)
        EXPECT_FALSE(ops.walk(roots, va).leaf.writable());

    // A 2 MB leaf partially overlapped by the range is rewritten once,
    // whole.
    VirtAddr huge_va = 0x80000000ull;
    auto head = pm.allocDataLarge(1, 1);
    ASSERT_TRUE(head.has_value());
    ASSERT_TRUE(ops.map2M(roots, 1, huge_va, *head, PteWrite, policy, 0,
                          nullptr));
    int huge_seen = 0;
    EXPECT_EQ(ops.protectRange(roots, huge_va + LargePageSize / 2,
                               huge_va + LargePageSize, 0, PteWrite,
                               [&](VirtAddr va, PageSizeKind sz) {
                                   EXPECT_EQ(va, huge_va);
                                   EXPECT_EQ(sz, PageSizeKind::Large2M);
                                   ++huge_seen;
                               },
                               nullptr),
              1u);
    EXPECT_EQ(huge_seen, 1);
    EXPECT_FALSE(ops.walk(roots, huge_va).leaf.writable());
    ops.unmapRange(roots, huge_va, huge_va + PageSize, keepFrames, nullptr);
    pm.freeDataLarge(*head);
}


/** One forEachLeaf visit. */
struct LeafVisit
{
    VirtAddr va;
    PteLoc loc;
    std::uint64_t pte;
    PageSizeKind size;

    bool operator==(const LeafVisit &) const = default;
};

/**
 * The explicit-stack walker forEachLeaf replaced, kept verbatim as the
 * order reference: a table's leaves ascending as it is scanned, its
 * children pushed ascending and so popped descending. Counts the
 * tables it reads into @p tables.
 */
std::vector<LeafVisit>
stackWalkLeaves(const mem::PhysicalMemory &mem, const RootSet &roots,
                unsigned &tables)
{
    std::vector<LeafVisit> out;
    tables = 0;
    if (roots.primaryRoot == InvalidPfn)
        return out;
    struct Frame
    {
        Pfn table;
        int level;
        VirtAddr base;
    };
    std::vector<Frame> stack{{roots.primaryRoot, 4, 0}};
    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        ++tables;
        const std::uint64_t *tbl = mem.tableView(f.table);
        std::uint64_t span = bytesPerEntry(ptLevel(f.level));
        for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
            Pte entry{tbl[i]};
            if (!entry.present())
                continue;
            VirtAddr va = f.base + i * span;
            if (f.level == 1) {
                out.push_back({va, PteLoc{f.table, i}, entry.raw(),
                               PageSizeKind::Base4K});
            } else if (f.level == 2 && entry.huge()) {
                out.push_back({va, PteLoc{f.table, i}, entry.raw(),
                               PageSizeKind::Large2M});
            } else {
                stack.push_back({entry.pfn(), f.level - 1, va});
            }
        }
    }
    return out;
}

/**
 * A seeded churn on a THP kernel: mmap (THP-eligible or not) on
 * fragmented memory, munmap of whole mappings and tails, mprotect,
 * then khugepaged collapses once memory is defragmented, and
 * madvise(NOHUGEPAGE) and partial munmaps split the huge pages. The
 * walker must give the old stack walker's exact sequence, and the
 * VMA-pruned walk the same sequence from fewer tables.
 */
TEST(ForEachLeafOrder, MatchesStackWalkerOnChurnedProcess)
{
    sim::Machine machine(sim::MachineConfig::tiny());
    pvops::NativeBackend native(machine.physmem());
    os::KernelConfig kcfg;
    kcfg.thp.khugepaged = true;
    kcfg.thp.kcompactd = true;
    kcfg.thp.splitPartial = true;
    os::Kernel kernel(machine, native, kcfg);
    os::Process &p = kernel.createProcess("churn", 0);
    auto &pm = machine.physmem();

    Rng frag(11);
    for (SocketId s = 0; s < machine.numSockets(); ++s)
        pm.fragment(s, 1.0, frag);

    struct Mapping
    {
        VirtAddr start;
        std::uint64_t pages;
    };
    std::vector<Mapping> live;
    Rng rng(2024);
    for (int i = 0; i < 160; ++i) {
        if (i == 80) {
            for (SocketId s = 0; s < machine.numSockets(); ++s)
                pm.defragment(s);
            kernel.thpTick();
        }
        unsigned r = static_cast<unsigned>(rng.below(10));
        if (live.empty() || (r < 4 && live.size() < 12)) {
            std::uint64_t pages = 1 + rng.below(3 * FramesPerLargePage / 2);
            os::MmapOptions opts;
            opts.populate = true;
            opts.thp = rng.chance(0.6);
            os::Region reg = kernel.mmap(p, pages * PageSize, opts);
            live.push_back({reg.start, pages});
            continue;
        }
        std::size_t idx = static_cast<std::size_t>(rng.below(live.size()));
        Mapping &m = live[idx];
        std::uint64_t first = rng.below(m.pages);
        std::uint64_t count = 1 + rng.below(m.pages - first);
        if (r < 7) {
            // munmap: the whole mapping, or its tail.
            std::uint64_t keep = m.pages > 1 && rng.chance(0.5)
                                     ? 1 + rng.below(m.pages - 1)
                                     : 0;
            kernel.munmap(p, m.start + keep * PageSize,
                          (m.pages - keep) * PageSize);
            if (keep) {
                m.pages = keep;
            } else {
                live[idx] = live.back();
                live.pop_back();
            }
        } else if (r < 8) {
            kernel.mprotect(p, m.start + first * PageSize, count * PageSize,
                            rng.chance(0.5) ? std::uint64_t{os::ProtRead}
                                            : std::uint64_t{os::ProtRead |
                                                            os::ProtWrite});
        } else {
            kernel.madvise(p, m.start + first * PageSize, count * PageSize,
                           r == 8 ? os::Madvise::Huge
                                  : os::Madvise::NoHuge);
        }
        if (i >= 80 && i % 10 == 0)
            kernel.thpTick();
    }
    ASSERT_GT(kernel.thp().stats().collapses, 0u);
    ASSERT_GT(kernel.thp().stats().splits, 0u);

    unsigned stack_tables = 0;
    std::vector<LeafVisit> want = stackWalkLeaves(pm, p.roots(), stack_tables);
    bool has_huge = false;
    for (const LeafVisit &v : want)
        has_huge = has_huge || v.size == PageSizeKind::Large2M;
    ASSERT_TRUE(has_huge);

    auto record = [](std::vector<LeafVisit> &out) {
        return [&out](VirtAddr va, PteLoc loc, Pte pte, PageSizeKind size) {
            out.push_back({va, loc, pte.raw(), size});
        };
    };
    std::vector<LeafVisit> full;
    kernel.ptOps().forEachLeaf(p.roots(), record(full));
    EXPECT_EQ(full, want);

    std::vector<LeafVisit> pruned;
    unsigned pruned_tables = 1; // the root
    kernel.ptOps().forEachLeaf(p.roots(), record(pruned),
                               [&](VirtAddr lo, VirtAddr hi) {
                                   bool keep = p.overlapsRange(lo, hi);
                                   pruned_tables += keep;
                                   return keep;
                               });
    EXPECT_EQ(pruned, want);
    EXPECT_LT(pruned_tables, stack_tables);
    kernel.destroyProcess(p);
}

} // namespace
} // namespace mitosim::pt
