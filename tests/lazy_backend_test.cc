/**
 * @file
 * Tests for lazy replica propagation (§7.2 library-OS design): installs
 * are queued as per-socket messages and applied at fault time; stores to
 * present replica entries stay eager; teardown purges pending messages;
 * end-to-end correctness through real core accesses.
 */

#include <gtest/gtest.h>

#include "src/core/lazy_backend.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/pvops/costs.h"
#include "src/sim/machine.h"

namespace mitosim::core
{
namespace
{

class LazyBackendTest : public ::testing::Test
{
  protected:
    LazyBackendTest()
        : machine(sim::MachineConfig::tiny()),
          backend(machine.physmem()),
          kernel(machine, backend)
    {
    }

    /** Walk the tree rooted at @p root directly (no OR-merge). */
    pt::Pte
    walkFrom(Pfn root, VirtAddr va)
    {
        auto &pm = machine.physmem();
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

    sim::Machine machine;
    LazyMitosisBackend backend;
    os::Kernel kernel;
};

TEST_F(LazyBackendTest, InstallsAreQueuedNotWritten)
{
    os::Process &p = kernel.createProcess("lazy", 0);
    kernel.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::all(2)));

    // A new mapping after replication: the remote replica must NOT see
    // it yet; a message must be pending for socket 1.
    auto region2 = kernel.mmap(p, PageSize,
                               os::MmapOptions{.populate = true});
    EXPECT_TRUE(walkFrom(p.roots().rootFor(0), region2.start).present());
    EXPECT_GT(backend.pendingFor(1), 0u);
    EXPECT_GT(backend.lazyStats().queued, 0u);
    kernel.destroyProcess(p);
}

TEST_F(LazyBackendTest, FaultDrainsQueueAndRetrySucceeds)
{
    os::Process &p = kernel.createProcess("drain", 0);
    kernel.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::all(2)));
    auto region2 = kernel.mmap(p, PageSize,
                               os::MmapOptions{.populate = true});

    // A thread on socket 1 touches the new page: its replica walk
    // faults, the hook drains the queue, the retry succeeds.
    os::ExecContext ctx(kernel, p);
    int tid = ctx.addThread(1);
    ctx.access(tid, region2.start, false);
    EXPECT_EQ(backend.pendingFor(1), 0u);
    EXPECT_GT(backend.lazyStats().drains, 0u);
    EXPECT_GT(backend.lazyStats().applied, 0u);
    EXPECT_TRUE(walkFrom(p.roots().rootFor(1), region2.start).present());
    kernel.destroyProcess(p);
}

TEST_F(LazyBackendTest, PresentEntryChangesStayEager)
{
    os::Process &p = kernel.createProcess("eager", 0);
    auto region = kernel.mmap(p, PageSize,
                              os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::all(2)));

    // Unmap: the remote replica's entry must clear immediately — a
    // stale present entry would keep translating to a freed frame.
    kernel.munmap(p, region.start, PageSize);
    EXPECT_FALSE(walkFrom(p.roots().rootFor(1), region.start).present());
    EXPECT_GT(backend.lazyStats().eagerFallbacks, 0u);
    kernel.destroyProcess(p);
}

TEST_F(LazyBackendTest, ChildFixupAppliedAtDrainTime)
{
    os::Process &p = kernel.createProcess("fixup", 0);
    kernel.mmap(p, PageSize, os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::all(2)));

    // Map far away so fresh intermediate tables are installed lazily.
    auto far = kernel.mmapFixed(p, 0x7f0000000000ull, PageSize,
                                os::MmapOptions{.populate = true});
    os::ExecContext ctx(kernel, p);
    int tid = ctx.addThread(1);
    ctx.access(tid, far.start, false);

    // Socket 1's tree must now reach the page through socket-1-local
    // intermediate tables.
    auto &pm = machine.physmem();
    Pfn table = p.roots().rootFor(1);
    for (int level = 4; level > 1; --level) {
        EXPECT_EQ(pm.socketOf(table), 1) << "level " << level;
        pt::Pte e{pm.table(table)[ptIndex(far.start, ptLevel(level))]};
        ASSERT_TRUE(e.present());
        table = e.pfn();
    }
    kernel.destroyProcess(p);
}

TEST_F(LazyBackendTest, TeardownPurgesPendingMessages)
{
    os::Process &p = kernel.createProcess("purge", 0);
    kernel.mmap(p, PageSize, os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::all(2)));
    kernel.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    EXPECT_GT(backend.pendingFor(1), 0u);

    // Destroy with messages still queued: nothing may dangle.
    kernel.destroyProcess(p);
    EXPECT_EQ(backend.pendingFor(1), 0u);
}

TEST_F(LazyBackendTest, MaskShrinkPurgesPendingMessages)
{
    os::Process &p = kernel.createProcess("shrink", 0);
    kernel.mmap(p, PageSize, os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::all(2)));
    kernel.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    EXPECT_GT(backend.pendingFor(1), 0u);

    // Dropping socket 1 frees its replicas: their queued installs must
    // go too, or the next socket-1 fault would write into freed frames.
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::none()));
    EXPECT_EQ(backend.pendingFor(1), 0u);
    kernel.destroyProcess(p);
}

TEST_F(LazyBackendTest, EndToEndEquivalenceWithEagerBackend)
{
    // The same access sequence through lazy and eager backends must end
    // with identical translations everywhere.
    auto run = [&](bool lazy) {
        sim::Machine m(sim::MachineConfig::tiny());
        MitosisBackend eager_b(m.physmem());
        LazyMitosisBackend lazy_b(m.physmem());
        os::Kernel k(m, lazy ? static_cast<pvops::PvOps &>(lazy_b)
                             : static_cast<pvops::PvOps &>(eager_b));
        os::Process &p = k.createProcess("x", 0);
        k.mmap(p, 16 * PageSize, os::MmapOptions{.populate = true});
        MitosisBackend &b = lazy ? lazy_b : eager_b;
        b.setReplicationMask(p.roots(), p.id(), SocketMask::all(2));
        auto r2 = k.mmap(p, 16 * PageSize,
                         os::MmapOptions{.populate = true});
        os::ExecContext ctx(k, p);
        int t0 = ctx.addThread(0);
        int t1 = ctx.addThread(1);
        for (VirtAddr va = r2.start; va < r2.end(); va += PageSize) {
            ctx.access(t0, va, true);
            ctx.access(t1, va, false);
        }
        // Collect (va -> pfn) from both replica roots.
        std::vector<std::pair<VirtAddr, Pfn>> out;
        k.ptOps().forEachLeaf(p.roots(),
                              [&](VirtAddr va, pt::PteLoc, pt::Pte pte,
                                  PageSizeKind) {
                                  out.push_back({va, pte.pfn()});
                              });
        k.destroyProcess(p);
        return out.size();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST_F(LazyBackendTest, QueueDepthIsTracked)
{
    os::Process &p = kernel.createProcess("depth", 0);
    kernel.mmap(p, PageSize, os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(),
                                           SocketMask::all(2)));
    kernel.mmap(p, 8 * PageSize, os::MmapOptions{.populate = true});
    EXPECT_GE(backend.lazyStats().maxQueueDepth, 8u);
    kernel.destroyProcess(p);
}

TEST_F(LazyBackendTest, UnreplicatedProcessBehavesNormally)
{
    os::Process &p = kernel.createProcess("plain", 0);
    auto region = kernel.mmap(p, 8 * PageSize,
                              os::MmapOptions{.populate = true});
    os::ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    ctx.access(tid, region.start, true);
    EXPECT_EQ(backend.lazyStats().queued, 0u);
    kernel.destroyProcess(p);
}

/**
 * Cycles @p backend charges to install one leaf into the vacant slot
 * next to a mapped page, its leaf table replicated on @p mask.
 */
Cycles
installCycles(mem::PhysicalMemory &pm, MitosisBackend &backend,
              SocketMask mask)
{
    pt::PageTableOps ops(pm, backend);
    pt::PtPlacementPolicy policy;
    pt::RootSet roots;
    EXPECT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
    VirtAddr va = 0x100000000ull;
    EXPECT_TRUE(ops.map4K(roots, 1, va, *pm.allocData(0, 1), pt::PteWrite,
                          policy, 0, nullptr));
    EXPECT_TRUE(backend.setReplicationMask(roots, 1, mask));
    pt::PteLoc loc = ops.walk(roots, va).loc;
    ++loc.index;
    pvops::KernelCost cost;
    backend.setPte(roots, loc,
                   pt::Pte::make(*pm.allocData(0, 1),
                                 pt::PtePresent | pt::PteUser),
                   1, &cost);
    ops.destroy(roots, nullptr);
    return cost.cycles;
}

TEST(LazyBackendCost, QueuedInstallChargesPrimaryStorePlusOneHopEach)
{
    // A lazy install into a 4-way replicated table writes the primary
    // as the eager backend does (page-meta indirection and store) and
    // queues one message per replica, each charged one ReplicaHopCost.
    numa::TopologyConfig cfg;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 1;
    cfg.memPerSocket = 16ull << 20;
    numa::Topology topo(cfg);

    mem::PhysicalMemory eager_pm(topo);
    MitosisBackend eager(eager_pm);
    Cycles primary_store = installCycles(eager_pm, eager, SocketMask::none());

    mem::PhysicalMemory lazy_pm(topo);
    LazyMitosisBackend lazy(lazy_pm);
    Cycles lazy_install = installCycles(lazy_pm, lazy, SocketMask::all(4));
    ASSERT_EQ(lazy.lazyStats().queued, 3u);
    EXPECT_EQ(lazy_install, primary_store + 3 * pvops::ReplicaHopCost);
}

} // namespace
} // namespace mitosim::core
