/**
 * @file
 * Unit tests for the Mitosis backend (§5): replica-set allocation, eager
 * propagation with semantic child fixup, A/D OR-reads, per-socket CR3,
 * and the replication mask lifecycle (§6).
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/base/logging.h"
#include "src/core/mitosis.h"
#include "src/mem/physical_memory.h"
#include "src/pt/operations.h"
#include "src/pvops/costs.h"

namespace mitosim::core
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

class MitosisBackendTest : public ::testing::Test
{
  protected:
    MitosisBackendTest()
        : topo(smallTopo()), pm(topo), backend(pm), ops(pm, backend)
    {
        EXPECT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
    }

    ~MitosisBackendTest() override { ops.destroy(roots, nullptr); }

    Pfn
    dataFrame(SocketId s)
    {
        auto pfn = pm.allocData(s, 1);
        EXPECT_TRUE(pfn.has_value());
        return *pfn;
    }

    /** Map n pages spread over distinct 2MB regions. */
    std::vector<VirtAddr>
    mapSpread(int n)
    {
        std::vector<VirtAddr> vas;
        for (int i = 0; i < n; ++i) {
            VirtAddr va = 0x100000000ull +
                          static_cast<VirtAddr>(i) * LargePageSize;
            EXPECT_TRUE(ops.map4K(roots, 1, va, dataFrame(i % 4),
                                  pt::PteWrite, policy, i % 4, nullptr));
            vas.push_back(va);
        }
        return vas;
    }

    /** Walk the tree rooted at @p root and return the leaf for @p va. */
    pt::Pte
    walkFrom(Pfn root, VirtAddr va)
    {
        Pfn table = root;
        for (int level = 4; level >= 1; --level) {
            pt::Pte e{pm.table(table)[ptIndex(va, ptLevel(level))]};
            if (!e.present())
                return pt::Pte{};
            if (level == 1 || (level == 2 && e.huge()))
                return e;
            table = e.pfn();
        }
        return pt::Pte{};
    }

    /** Assert every PT page of the tree at @p root lives on @p socket. */
    void
    expectTreeLocalTo(Pfn root, SocketId socket)
    {
        std::vector<std::pair<Pfn, int>> stack{{root, 4}};
        while (!stack.empty()) {
            auto [table, level] = stack.back();
            stack.pop_back();
            EXPECT_EQ(pm.socketOf(table), socket)
                << "PT page at level " << level << " not local";
            if (level == 1)
                continue;
            for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
                pt::Pte e{pm.table(table)[i]};
                if (e.present() && !(level == 2 && e.huge()))
                    stack.push_back({e.pfn(), level - 1});
            }
        }
    }

    numa::Topology topo;
    mem::PhysicalMemory pm;
    MitosisBackend backend;
    pt::PageTableOps ops;
    pt::RootSet roots;
    pt::PtPlacementPolicy policy;
};

TEST_F(MitosisBackendTest, UnreplicatedBehavesLikeNative)
{
    auto vas = mapSpread(4);
    EXPECT_EQ(pm.replicaCount(roots.primaryRoot), 1);
    for (VirtAddr va : vas)
        EXPECT_TRUE(ops.walk(roots, va).mapped);
    EXPECT_EQ(backend.stats().eagerUpdates, 0u);
}

TEST_F(MitosisBackendTest, SetReplicationMaskCreatesFullTrees)
{
    auto vas = mapSpread(6);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    EXPECT_EQ(roots.replicaMask.count(), 4);

    // Every socket now has a complete local tree translating every VA
    // to the same data frame.
    for (SocketId s = 0; s < 4; ++s) {
        Pfn root = roots.rootFor(s);
        EXPECT_EQ(pm.socketOf(root), s);
        expectTreeLocalTo(root, s);
        for (VirtAddr va : vas) {
            pt::Pte here = walkFrom(root, va);
            pt::Pte primary = walkFrom(roots.primaryRoot, va);
            EXPECT_TRUE(here.present());
            EXPECT_EQ(here.pfn(), primary.pfn());
        }
    }
}

TEST_F(MitosisBackendTest, ReplicationIsSemanticNotBytewise)
{
    mapSpread(2);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(2)));
    // Upper-level entries must differ between replicas (pointing to
    // local children); leaf entries must be identical.
    Pfn root0 = roots.rootFor(0);
    Pfn root1 = roots.rootFor(1);
    ASSERT_NE(root0, root1);
    unsigned idx = ptIndex(0x100000000ull, PtLevel::L4);
    pt::Pte l4_0{pm.table(root0)[idx]};
    pt::Pte l4_1{pm.table(root1)[idx]};
    ASSERT_TRUE(l4_0.present());
    ASSERT_TRUE(l4_1.present());
    EXPECT_NE(l4_0.pfn(), l4_1.pfn()); // a bytewise copy would match
    EXPECT_EQ(pm.socketOf(l4_0.pfn()), 0);
    EXPECT_EQ(pm.socketOf(l4_1.pfn()), 1);
}

TEST_F(MitosisBackendTest, NewMappingsPropagateEagerly)
{
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    VirtAddr va = 0x200000000ull;
    Pfn data = dataFrame(2);
    ASSERT_TRUE(ops.map4K(roots, 1, va, data, pt::PteWrite, policy, 2,
                          nullptr));
    for (SocketId s = 0; s < 4; ++s) {
        pt::Pte leaf = walkFrom(roots.rootFor(s), va);
        EXPECT_TRUE(leaf.present()) << "socket " << s;
        EXPECT_EQ(leaf.pfn(), data);
        expectTreeLocalTo(roots.rootFor(s), s);
    }
    EXPECT_GT(backend.stats().eagerUpdates, 0u);
}

TEST_F(MitosisBackendTest, UnmapPropagatesToAllReplicas)
{
    auto vas = mapSpread(2);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    ops.unmapRange(roots, vas[0], vas[0] + PageSize,
                   [](VirtAddr, pt::Pte, PageSizeKind) {}, nullptr);
    for (SocketId s = 0; s < 4; ++s) {
        EXPECT_FALSE(walkFrom(roots.rootFor(s), vas[0]).present());
        EXPECT_TRUE(walkFrom(roots.rootFor(s), vas[1]).present());
    }
}

TEST_F(MitosisBackendTest, ProtectPropagatesFlags)
{
    auto vas = mapSpread(1);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    ops.protectRange(roots, vas[0], vas[0] + PageSize, 0, pt::PteWrite, {},
                     nullptr);
    for (SocketId s = 0; s < 4; ++s)
        EXPECT_FALSE(walkFrom(roots.rootFor(s), vas[0]).writable());
}

TEST_F(MitosisBackendTest, AccessedDirtyBitsAreOredAcrossReplicas)
{
    auto vas = mapSpread(1);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));

    // Hardware on socket 2 walks its local replica and sets A/D there
    // directly (bypassing PV-Ops), as the real walker does.
    Pfn root2 = roots.rootFor(2);
    Pfn table = root2;
    for (int level = 4; level > 1; --level) {
        pt::Pte e{pm.table(table)[ptIndex(vas[0], ptLevel(level))]};
        table = e.pfn();
    }
    unsigned leaf_idx = ptIndex(vas[0], PtLevel::L1);
    pm.table(table)[leaf_idx] |= pt::PteAccessed | pt::PteDirty;

    // The OS reads through PV-Ops: bits must be visible (OR-ed, §5.4)...
    pt::PteLoc loc = ops.walk(roots, vas[0]).loc;
    pt::Pte merged = backend.readPte(roots, loc, nullptr);
    EXPECT_TRUE(merged.accessed());
    EXPECT_TRUE(merged.dirty());

    // ...even though the primary copy alone does not have them.
    pt::Pte primary_leaf = walkFrom(roots.primaryRoot, vas[0]);
    EXPECT_FALSE(primary_leaf.accessed());

    // Clearing resets every replica.
    backend.clearAccessedDirty(roots, loc, pt::PteAdMask, nullptr);
    EXPECT_FALSE(pt::Pte{pm.table(table)[leaf_idx]}.accessed());
    merged = backend.readPte(roots, loc, nullptr);
    EXPECT_FALSE(merged.accessed());
    EXPECT_GT(backend.stats().adMergedReads, 0u);
}

TEST_F(MitosisBackendTest, Cr3SelectsLocalReplica)
{
    mapSpread(1);
    ASSERT_TRUE(
        backend.setReplicationMask(roots, 1,
                                   SocketMask::single(1) |
                                       SocketMask::single(3)));
    EXPECT_EQ(pm.socketOf(backend.cr3For(roots, 1)), 1);
    EXPECT_EQ(pm.socketOf(backend.cr3For(roots, 3)), 3);
    // Sockets without a replica fall back to the primary root.
    EXPECT_EQ(backend.cr3For(roots, 2), roots.primaryRoot);
}

TEST_F(MitosisBackendTest, EmptyMaskTearsDownReplicas)
{
    mapSpread(4);
    std::uint64_t pt_before = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int l = 1; l <= 4; ++l)
            pt_before += pm.ptPagesAt(s, l);

    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::none()));

    std::uint64_t pt_after = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int l = 1; l <= 4; ++l)
            pt_after += pm.ptPagesAt(s, l);
    EXPECT_EQ(pt_after, pt_before);
    EXPECT_FALSE(roots.replicated());
    EXPECT_EQ(pm.replicaCount(roots.primaryRoot), 1);
    // All CR3 slots back to primary.
    for (SocketId s = 0; s < 4; ++s)
        EXPECT_EQ(backend.cr3For(roots, s), roots.primaryRoot);
}

TEST_F(MitosisBackendTest, ShrinkingMaskFreesOnlyRemovedSockets)
{
    mapSpread(3);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(2)));
    EXPECT_EQ(pm.socketOf(roots.rootFor(0)), 0);
    EXPECT_EQ(pm.socketOf(roots.rootFor(1)), 1);
    EXPECT_EQ(backend.cr3For(roots, 3), roots.primaryRoot);
    // Replica ring of the root shrank accordingly (primary + 1).
    EXPECT_EQ(pm.replicaCount(roots.primaryRoot), 2);
}

TEST_F(MitosisBackendTest, GrowingMaskAddsSockets)
{
    mapSpread(2);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(2)));
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    for (SocketId s = 0; s < 4; ++s)
        expectTreeLocalTo(roots.rootFor(s), s);
}

TEST_F(MitosisBackendTest, ReplicatedAllocCreatesLinkedSets)
{
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    VirtAddr va = 0x300000000ull;
    ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0), pt::PteWrite,
                          policy, 0, nullptr));
    // The leaf table allocated by this mapping has 4 linked replicas.
    auto res = ops.walk(roots, va);
    EXPECT_EQ(pm.replicaCount(res.loc.ptPfn), 4);
}

TEST_F(MitosisBackendTest, CircularListUpdateCostIs2N)
{
    auto vas = mapSpread(1);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    auto res = ops.walk(roots, vas[0]);
    ASSERT_TRUE(res.mapped);
    pvops::KernelCost cost;
    backend.setPte(roots, res.loc, res.leaf.withFlags(pt::PteNumaHint), 1,
                   &cost);
    // §5.2: "the update of all N replicas takes 2N memory references":
    // 1 primary write + (N-1) replica writes + (N-1) list hops.
    EXPECT_EQ(cost.pteWrites, 1u);
    EXPECT_EQ(cost.replicaWrites, 3u);
    EXPECT_EQ(cost.replicaHops, 3u);
}

TEST_F(MitosisBackendTest, WalkModeChargesMoreThanListMode)
{
    MitosisConfig cfg;
    cfg.updateMode = UpdateMode::WalkReplicas;
    MitosisBackend walk_backend(pm, cfg);
    pt::PageTableOps walk_ops(pm, walk_backend);
    pt::RootSet walk_roots;
    ASSERT_TRUE(walk_ops.createRoot(walk_roots, 2, 0, nullptr));
    VirtAddr va = 0x600000000ull;
    ASSERT_TRUE(walk_ops.map4K(walk_roots, 2, va, dataFrame(0),
                               pt::PteWrite, policy, 0, nullptr));
    ASSERT_TRUE(walk_backend.setReplicationMask(walk_roots, 2,
                                                SocketMask::all(4)));

    pvops::KernelCost list_cost;
    pvops::KernelCost walk_cost;
    {
        // List-mode cost on the fixture's replicated tree.
        ASSERT_TRUE(
            backend.setReplicationMask(roots, 1, SocketMask::all(4)));
        mapSpread(1);
        VirtAddr list_va = 0x100000000ull;
        ops.protectRange(roots, list_va, list_va + PageSize,
                         pt::PteNumaHint, 0, {}, &list_cost);
    }
    walk_ops.protectRange(walk_roots, va, va + PageSize, pt::PteNumaHint, 0,
                          {}, &walk_cost);
    EXPECT_GT(walk_cost.cycles, list_cost.cycles);
    walk_ops.destroy(walk_roots, nullptr);
}

TEST_F(MitosisBackendTest, DegradedAllocationKeepsWorking)
{
    // Exhaust socket 3 so replication there fails gracefully.
    while (pm.allocData(3, 9))
        ;
    mapSpread(2);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    EXPECT_GT(backend.stats().degradedAllocs, 0u);
    // Translation still works everywhere (socket 3 walks cross-socket).
    for (SocketId s = 0; s < 4; ++s) {
        pt::Pte leaf = walkFrom(roots.rootFor(s), 0x100000000ull);
        EXPECT_TRUE(leaf.present());
    }
}

TEST_F(MitosisBackendTest, ReleaseFreesWholeReplicaSet)
{
    mapSpread(1);
    ASSERT_TRUE(backend.setReplicationMask(roots, 1, SocketMask::all(4)));
    std::uint64_t live_before = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int l = 1; l <= 4; ++l)
            live_before += pm.ptPagesAt(s, l);
    ops.destroy(roots, nullptr);
    std::uint64_t live_after = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int l = 1; l <= 4; ++l)
            live_after += pm.ptPagesAt(s, l);
    EXPECT_EQ(live_after, 0u);
    EXPECT_GT(live_before, 0u);
    // Re-create for fixture teardown.
    ASSERT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
}

TEST_F(MitosisBackendTest, MaskBeyondTopologyIsFatal)
{
    mapSpread(1);
    EXPECT_THROW(
        backend.setReplicationMask(roots, 1, SocketMask::single(9)),
        SimError);
}

} // namespace
} // namespace mitosim::core
