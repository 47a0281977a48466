/**
 * @file
 * Unit tests for the hardware page walker: reference counts per walk,
 * PWC level skipping, A/D bit setting (bypassing PV-Ops), and fault
 * classification.
 */

#include <gtest/gtest.h>

#include "src/mem/physical_memory.h"
#include "src/pt/operations.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"
#include "src/sim/walker.h"

namespace mitosim::sim
{
namespace
{

class WalkerTest : public ::testing::Test
{
  protected:
    WalkerTest()
        : machine(sim::MachineConfig::tiny()),
          native(machine.physmem()),
          ops(machine.physmem(), native),
          walker(machine.physmem(), machine.hierarchy())
    {
        EXPECT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
    }

    ~WalkerTest() override { ops.destroy(roots, nullptr); }

    Pfn
    mapPage(VirtAddr va, SocketId data_socket, std::uint64_t flags)
    {
        auto pfn = machine.physmem().allocData(data_socket, 1);
        EXPECT_TRUE(pfn.has_value());
        EXPECT_TRUE(ops.map4K(roots, 1, va, *pfn, flags, policy, 0,
                              nullptr));
        return *pfn;
    }

    Machine machine;
    pvops::NativeBackend native;
    pt::PageTableOps ops;
    PageWalker walker;
    pt::RootSet roots;
    pt::PtPlacementPolicy policy;
    tlb::PagingStructureCache pwc;
};

TEST_F(WalkerTest, FullWalkIssuesFourReferences)
{
    VirtAddr va = 0x1000;
    Pfn data = mapPage(va, 0, pt::PteWrite);
    PerfCounters pc;
    auto out = walker.walk(0, roots.primaryRoot, va, false, pwc, &pc);
    EXPECT_EQ(out.fault, WalkFault::None);
    EXPECT_EQ(out.memRefs, 4u);
    EXPECT_EQ(out.entry.pfn, data);
    EXPECT_EQ(pc.walks, 1u);
    EXPECT_EQ(pc.walkMemRefs, 4u);
}

TEST_F(WalkerTest, PwcShortensSecondWalk)
{
    VirtAddr va = 0x1000;
    mapPage(va, 0, pt::PteWrite);
    mapPage(va + PageSize, 0, pt::PteWrite);
    PerfCounters pc;
    walker.walk(0, roots.primaryRoot, va, false, pwc, &pc);
    // Second walk in the same 2MB range: PDE cached -> leaf only.
    auto out = walker.walk(0, roots.primaryRoot, va + PageSize, false,
                           pwc, &pc);
    EXPECT_EQ(out.memRefs, 1u);
}

TEST_F(WalkerTest, WalkLatencyReflectsPtPlacement)
{
    // Leaf table remote vs local: the remote walk must be slower.
    VirtAddr near_va = 0x1000;
    VirtAddr far_va = 0x80000000ull;
    mapPage(near_va, 0, pt::PteWrite);
    policy.mode = pt::PtPlacement::Fixed;
    policy.fixedSocket = 1;
    auto pfn = machine.physmem().allocData(0, 1);
    ASSERT_TRUE(pfn.has_value());
    ASSERT_TRUE(ops.map4K(roots, 1, far_va, *pfn, pt::PteWrite, policy, 0,
                          nullptr));

    tlb::PagingStructureCache cold1;
    tlb::PagingStructureCache cold2;
    PerfCounters local_pc;
    PerfCounters remote_pc;
    auto local_walk =
        walker.walk(0, roots.primaryRoot, near_va, false, cold1,
                    &local_pc);
    auto remote_walk =
        walker.walk(0, roots.primaryRoot, far_va, false, cold2,
                    &remote_pc);
    // The local-leaf walk touches only socket-0 DRAM; the remote-leaf
    // walk pays >= 2 remote DRAM references (L2 and L1 tables live on
    // socket 1) and is charged at least two remote latencies.
    EXPECT_EQ(local_pc.ptDramRemote, 0u);
    EXPECT_GE(remote_pc.ptDramRemote, 2u);
    EXPECT_GT(remote_walk.latency, 2 * 580u);
    EXPECT_GT(local_walk.latency, 0u);
}

TEST_F(WalkerTest, SetsAccessedOnReadAndDirtyOnWrite)
{
    VirtAddr va = 0x3000;
    mapPage(va, 0, pt::PteWrite);
    walker.walk(0, roots.primaryRoot, va, false, pwc, nullptr);
    auto leaf = ops.walk(roots, va);
    EXPECT_TRUE(leaf.leaf.accessed());
    EXPECT_FALSE(leaf.leaf.dirty());
    walker.walk(0, roots.primaryRoot, va, true, pwc, nullptr);
    leaf = ops.walk(roots, va);
    EXPECT_TRUE(leaf.leaf.dirty());
}

TEST_F(WalkerTest, SetsAccessedOnIntermediateLevels)
{
    VirtAddr va = 0x4000;
    mapPage(va, 0, pt::PteWrite);
    walker.walk(0, roots.primaryRoot, va, false, pwc, nullptr);
    // Check the root entry's accessed bit directly.
    auto &pm = machine.physmem();
    pt::Pte root_entry{
        pm.table(roots.primaryRoot)[ptIndex(va, PtLevel::L4)]};
    EXPECT_TRUE(root_entry.accessed());
}

TEST_F(WalkerTest, NotPresentFaults)
{
    PerfCounters pc;
    auto out = walker.walk(0, roots.primaryRoot, 0x99999000ull, false,
                           pwc, &pc);
    EXPECT_EQ(out.fault, WalkFault::NotPresent);
    EXPECT_EQ(pc.walks, 0u); // no completed walk
}

TEST_F(WalkerTest, NumaHintFaults)
{
    VirtAddr va = 0x5000;
    mapPage(va, 0, pt::PteWrite);
    ASSERT_EQ(ops.protectRange(roots, va, va + PageSize, pt::PteNumaHint,
                               0, {}, nullptr),
              1u);
    auto out = walker.walk(0, roots.primaryRoot, va, false, pwc, nullptr);
    EXPECT_EQ(out.fault, WalkFault::NumaHint);
}

TEST_F(WalkerTest, WriteToReadOnlyFaults)
{
    VirtAddr va = 0x6000;
    mapPage(va, 0, 0); // not writable
    auto read_ok = walker.walk(0, roots.primaryRoot, va, false, pwc,
                               nullptr);
    EXPECT_EQ(read_ok.fault, WalkFault::None);
    auto write_bad = walker.walk(0, roots.primaryRoot, va, true, pwc,
                                 nullptr);
    EXPECT_EQ(write_bad.fault, WalkFault::Protection);
}

TEST_F(WalkerTest, HugeLeafStopsAtL2)
{
    auto head = machine.physmem().allocDataLarge(0, 1);
    ASSERT_TRUE(head.has_value());
    VirtAddr va = 0x40000000ull;
    ASSERT_TRUE(ops.map2M(roots, 1, va, *head, pt::PteWrite, policy, 0,
                          nullptr));
    auto out = walker.walk(0, roots.primaryRoot, va + 0x5000, true, pwc,
                           nullptr);
    EXPECT_EQ(out.fault, WalkFault::None);
    EXPECT_EQ(out.entry.size, PageSizeKind::Large2M);
    EXPECT_EQ(out.memRefs, 3u); // L4, L3, L2
    machine.physmem().freeDataLarge(*head);
    ops.unmapRange(roots, va, va + PageSize,
                   [](VirtAddr, pt::Pte, PageSizeKind) {}, nullptr);
}

TEST_F(WalkerTest, AdBitsBypassPvOpsIndirection)
{
    // The walker writes A/D straight into the walked table; the native
    // backend's counters (via KernelCost) see nothing. This mirrors
    // hardware behaviour that §5.4 works around.
    VirtAddr va = 0x7000;
    mapPage(va, 0, pt::PteWrite);
    PerfCounters pc;
    walker.walk(0, roots.primaryRoot, va, true, pwc, &pc);
    // A read via PV-Ops still observes the bits.
    pt::Pte leaf = native.readPte(roots, ops.walk(roots, va).loc, nullptr);
    EXPECT_TRUE(leaf.accessed());
    EXPECT_TRUE(leaf.dirty());
}

} // namespace
} // namespace mitosim::sim
