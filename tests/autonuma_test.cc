/**
 * @file
 * Tests for AutoNUMA: hint placement, hint faults through real accesses,
 * data-page migration towards the accessor, and the key baseline fact
 * the paper exploits — page-table pages are never migrated (§3.1 obs 4).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::os
{
namespace
{

class AutoNumaTest : public ::testing::Test
{
  protected:
    AutoNumaTest()
        : machine(sim::MachineConfig::tiny()),
          native(machine.physmem()),
          kernel(machine, native)
    {
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    Kernel kernel;
};

TEST_F(AutoNumaTest, ScanPlacesHints)
{
    Process &p = kernel.createProcess("scan", 0);
    kernel.mmap(p, 32 * PageSize, MmapOptions{.populate = true});
    Rng rng(1);
    kernel.autoNuma().scan(p, 1.0, rng);
    EXPECT_EQ(kernel.autoNuma().stats().hintsPlaced, 32u);
    // Every leaf carries the hint now.
    int hinted = 0;
    kernel.ptOps().forEachLeaf(p.roots(),
                               [&](VirtAddr, pt::PteLoc, pt::Pte pte,
                                   PageSizeKind) {
                                   if (pte.numaHint())
                                       ++hinted;
                               });
    EXPECT_EQ(hinted, 32);
    kernel.destroyProcess(p);
}

TEST_F(AutoNumaTest, SampleFractionRoughlyRespected)
{
    Process &p = kernel.createProcess("frac", 0);
    kernel.mmap(p, 256 * PageSize, MmapOptions{.populate = true});
    Rng rng(2);
    kernel.autoNuma().scan(p, 0.25, rng);
    auto placed = kernel.autoNuma().stats().hintsPlaced;
    EXPECT_GT(placed, 30u);
    EXPECT_LT(placed, 100u);
    kernel.destroyProcess(p);
}

TEST_F(AutoNumaTest, HintFaultMigratesRemoteDataPage)
{
    // Data on socket 0, accessor on socket 1 -> page moves to socket 1.
    Process &p = kernel.createProcess("mig", 0);
    kernel.setDataPolicy(p, DataPolicy::Fixed, 0);
    auto region = kernel.mmap(p, 4 * PageSize,
                              MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(1); // socket 1

    Rng rng(3);
    kernel.autoNuma().scan(p, 1.0, rng);
    ctx.access(tid, region.start, false); // hint fault fires here

    auto leaf = kernel.ptOps().walk(p.roots(), region.start);
    EXPECT_EQ(machine.physmem().socketOf(leaf.leaf.pfn()), 1);
    EXPECT_FALSE(leaf.leaf.numaHint()); // hint cleared
    EXPECT_EQ(kernel.autoNuma().stats().pagesMigrated, 1u);
    EXPECT_GE(kernel.autoNuma().stats().hintFaults, 1u);
    kernel.destroyProcess(p);
}

TEST_F(AutoNumaTest, LocalAccessClearsHintWithoutMigration)
{
    Process &p = kernel.createProcess("local", 0);
    auto region = kernel.mmap(p, PageSize, MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(0); // same socket as the data

    Rng rng(4);
    kernel.autoNuma().scan(p, 1.0, rng);
    ctx.access(tid, region.start, false);
    EXPECT_EQ(kernel.autoNuma().stats().pagesMigrated, 0u);
    auto leaf = kernel.ptOps().walk(p.roots(), region.start);
    EXPECT_EQ(machine.physmem().socketOf(leaf.leaf.pfn()), 0);
    kernel.destroyProcess(p);
}

TEST_F(AutoNumaTest, PageTablePagesAreNeverMigrated)
{
    // The heart of the paper's §3 analysis: AutoNUMA moves data, not
    // page-tables.
    Process &p = kernel.createProcess("pt", 0);
    kernel.setDataPolicy(p, DataPolicy::Fixed, 0);
    kernel.setPtPlacement(p, pt::PtPlacement::Fixed, 0);
    auto region = kernel.mmap(p, 64 * PageSize,
                              MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    int tid = ctx.addThread(1);

    std::uint64_t pt_on_0 = 0;
    for (int l = 1; l <= 4; ++l)
        pt_on_0 += machine.physmem().ptPagesAt(0, l);

    // Several AutoNUMA rounds with all accesses from socket 1.
    for (int round = 0; round < 3; ++round) {
        Rng rng(static_cast<std::uint64_t>(round) + 10);
        kernel.autoNuma().scan(p, 1.0, rng);
        for (VirtAddr va = region.start; va < region.end();
             va += PageSize)
            ctx.access(tid, va, false);
    }

    // All data migrated to socket 1...
    for (VirtAddr va = region.start; va < region.end(); va += PageSize) {
        auto leaf = kernel.ptOps().walk(p.roots(), va);
        EXPECT_EQ(machine.physmem().socketOf(leaf.leaf.pfn()), 1);
    }
    // ...but every page-table page is still on socket 0.
    std::uint64_t pt_on_0_after = 0;
    for (int l = 1; l <= 4; ++l)
        pt_on_0_after += machine.physmem().ptPagesAt(0, l);
    std::uint64_t pt_on_1 = 0;
    for (int l = 1; l <= 4; ++l)
        pt_on_1 += machine.physmem().ptPagesAt(1, l);
    EXPECT_EQ(pt_on_0_after, pt_on_0);
    EXPECT_EQ(pt_on_1, 0u);
    kernel.destroyProcess(p);
}

TEST_F(AutoNumaTest, TickScansOnlyOptedInProcesses)
{
    Process &a = kernel.createProcess("on", 0);
    Process &b = kernel.createProcess("off", 0);
    kernel.mmap(a, 8 * PageSize, MmapOptions{.populate = true});
    kernel.mmap(b, 8 * PageSize, MmapOptions{.populate = true});
    kernel.enableAutoNuma(a, true);
    Rng rng(5);
    kernel.autoNumaTick(1.0, rng);
    int hinted_b = 0;
    kernel.ptOps().forEachLeaf(b.roots(),
                               [&](VirtAddr, pt::PteLoc, pt::Pte pte,
                                   PageSizeKind) {
                                   if (pte.numaHint())
                                       ++hinted_b;
                               });
    EXPECT_EQ(hinted_b, 0);
    EXPECT_EQ(kernel.autoNuma().stats().hintsPlaced, 8u);
    kernel.destroyProcess(a);
    kernel.destroyProcess(b);
}

TEST_F(AutoNumaTest, RescanSkipsAlreadyHintedPages)
{
    Process &p = kernel.createProcess("rescan", 0);
    kernel.mmap(p, 8 * PageSize, MmapOptions{.populate = true});
    Rng rng(6);
    kernel.autoNuma().scan(p, 1.0, rng);
    kernel.autoNuma().scan(p, 1.0, rng);
    EXPECT_EQ(kernel.autoNuma().stats().hintsPlaced, 8u);
    kernel.destroyProcess(p);
}

/**
 * A fixed-seed scan over mappings with holes and unmapped tails hints
 * exactly these pages, and leaves the generator exactly here: the
 * draws pair with leaves in the walk's order, and a walk that skips
 * subtrees without VMAs must keep that pairing.
 */
TEST_F(AutoNumaTest, FixedSeedScanHintsPinnedPages)
{
    Process &p = kernel.createProcess("pinned", 0);
    MmapOptions opts{.populate = true};
    Region a = kernel.mmap(p, 700 * PageSize, opts);
    Region b = kernel.mmap(p, 40 * PageSize, opts);
    Region c = kernel.mmap(p, 300 * PageSize, opts);
    kernel.munmap(p, b.start, b.length);                        // all
    kernel.munmap(p, a.start + 600 * PageSize, 100 * PageSize); // tail
    kernel.munmap(p, c.start + 10 * PageSize, 20 * PageSize);   // hole

    Rng rng(42);
    kernel.autoNuma().scan(p, 0.02, rng);
    // Pages from a.start in walk order, leaf tables descending: c's
    // (pages 1536 on), then a's second (512 on), then a's first.
    std::vector<std::uint64_t> hinted;
    kernel.ptOps().forEachLeaf(
        p.roots(), [&](VirtAddr va, pt::PteLoc, pt::Pte pte, PageSizeKind) {
            if (pte.numaHint())
                hinted.push_back((va - a.start) / PageSize);
        });
    EXPECT_EQ(hinted, (std::vector<std::uint64_t>{1681, 1698, 1728, 1835, 516,
                                                 529, 541, 76, 87, 156,
                                                 190, 211, 414, 458, 473,
                                                 482}));
    EXPECT_EQ(kernel.autoNuma().stats().pagesScanned, 600u + 280u);
    EXPECT_EQ(kernel.autoNuma().stats().hintsPlaced, hinted.size());
    EXPECT_EQ(rng.next(), 11722410664099757535ull);
    kernel.destroyProcess(p);
}

} // namespace
} // namespace mitosim::os
