/**
 * @file
 * Tests for page-table migration (§5.5): replicate-to-target plus release
 * of the source copies, the onProcessMigrated hook, and the end-to-end
 * kernel.migrateProcess path under the Mitosis backend.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/core/mitosis.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/sim/machine.h"

namespace mitosim::core
{
namespace
{

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest()
        : machine(sim::MachineConfig::tiny()),
          backend(machine.physmem()),
          kernel(machine, backend)
    {
    }

    std::uint64_t
    ptPagesOn(SocketId s)
    {
        std::uint64_t n = 0;
        for (int l = 1; l <= 4; ++l)
            n += machine.physmem().ptPagesAt(s, l);
        return n;
    }

    sim::Machine machine;
    MitosisBackend backend;
    os::Kernel kernel;
};

TEST_F(MigrationTest, MigratePageTablesMovesWholeTree)
{
    os::Process &p = kernel.createProcess("mig", 0);
    kernel.mmap(p, 1ull << 20, os::MmapOptions{.populate = true});
    std::uint64_t on0 = ptPagesOn(0);
    EXPECT_GT(on0, 0u);
    EXPECT_EQ(ptPagesOn(1), 0u);

    ASSERT_TRUE(backend.migratePageTables(p.roots(), p.id(), 1));

    EXPECT_EQ(ptPagesOn(0), 0u); // eager free of the source copies
    EXPECT_EQ(ptPagesOn(1), on0);
    EXPECT_EQ(machine.physmem().socketOf(p.roots().primaryRoot), 1);
    EXPECT_FALSE(p.roots().replicated());

    // Translations survive the move.
    for (const auto &[start, vma] : p.vmas()) {
        for (VirtAddr va = start; va < vma.end; va += PageSize)
            EXPECT_TRUE(kernel.ptOps().walk(p.roots(), va).mapped);
    }
    kernel.destroyProcess(p);
}

TEST_F(MigrationTest, KernelMigrationTriggersPtMigrationViaHook)
{
    os::Process &p = kernel.createProcess("hook", 0);
    auto region = kernel.mmap(p, 512 * PageSize,
                              os::MmapOptions{.populate = true});
    os::ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0);
    (void)tid;

    ASSERT_TRUE(kernel.migrateProcess(p, 1, /*migrate_data=*/true));

    // With Mitosis, page-tables follow the process (§5.5)...
    EXPECT_EQ(ptPagesOn(0), 0u);
    EXPECT_GT(ptPagesOn(1), 0u);
    // ...and the rescheduled core uses the migrated root.
    EXPECT_EQ(machine.core(ctx.coreOf(0)).cr3(), p.roots().primaryRoot);

    // The process keeps running correctly after migration.
    ctx.access(0, region.start, true);
    ctx.access(0, region.start + 100 * PageSize, false);
    kernel.destroyProcess(p);
}

TEST_F(MigrationTest, FullyReplicatedProcessNeedsNoMigration)
{
    os::Process &p = kernel.createProcess("rep", 0);
    kernel.mmap(p, 64 * PageSize, os::MmapOptions{.populate = true});
    ASSERT_TRUE(backend.setReplicationMask(
        p.roots(), p.id(), SocketMask::all(machine.numSockets())));
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    std::uint64_t migrations_before = backend.stats().treeMigrations;
    ASSERT_TRUE(kernel.migrateProcess(p, 1, false));
    // Already replicated on the target: the hook performs no migration.
    EXPECT_EQ(backend.stats().treeMigrations, migrations_before);
    EXPECT_EQ(machine.physmem().socketOf(
                  backend.cr3For(p.roots(), 1)),
              1);
    kernel.destroyProcess(p);
}

TEST_F(MigrationTest, MigrationChargesKernelCost)
{
    os::Process &p = kernel.createProcess("cost", 0);
    kernel.mmap(p, 1024 * PageSize, os::MmapOptions{.populate = true});
    pvops::KernelCost cost;
    ASSERT_TRUE(
        backend.migratePageTables(p.roots(), p.id(), 1, &cost));
    EXPECT_GT(cost.cycles, 0u);
    EXPECT_GT(cost.ptPagesAllocated, 0u);
    EXPECT_GT(cost.ptPagesFreed, 0u);
    kernel.destroyProcess(p);
}

TEST_F(MigrationTest, RepeatedMigrationIsStable)
{
    os::Process &p = kernel.createProcess("pingpong", 0);
    kernel.mmap(p, 256 * PageSize, os::MmapOptions{.populate = true});
    std::uint64_t total_before = ptPagesOn(0) + ptPagesOn(1);
    for (int round = 0; round < 6; ++round) {
        SocketId target = (round % 2 == 0) ? 1 : 0;
        ASSERT_TRUE(
            backend.migratePageTables(p.roots(), p.id(), target));
        EXPECT_EQ(ptPagesOn(target), total_before);
        EXPECT_EQ(ptPagesOn(1 - target), 0u);
    }
    kernel.destroyProcess(p);
}

TEST_F(MigrationTest, MigrationPreservesLeafFlags)
{
    os::Process &p = kernel.createProcess("flags", 0);
    auto region = kernel.mmap(p, 8 * PageSize,
                              os::MmapOptions{.populate = true});
    kernel.mprotect(p, region.start, 2 * PageSize, os::ProtRead);
    ASSERT_TRUE(backend.migratePageTables(p.roots(), p.id(), 1));
    EXPECT_FALSE(
        kernel.ptOps().walk(p.roots(), region.start).leaf.writable());
    EXPECT_TRUE(kernel.ptOps()
                    .walk(p.roots(), region.start + 4 * PageSize)
                    .leaf.writable());
    kernel.destroyProcess(p);
}

} // namespace
} // namespace mitosim::core
