/**
 * @file
 * Tests for the snapshot subsystem (src/snapshot/): Universe forking,
 * the populate cache, and the determinism contract — a job run from a
 * fork must be byte-identical to the same job run from a fresh
 * populate, and sibling forks must never observe each other's writes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/pt_dump.h"
#include "src/check/vmcheck.h"
#include "src/workloads/workload.h"

namespace mitosim::snapshot
{
namespace
{

bench::PopulateSpec
testSpec(const std::string &workload, BackendKind backend)
{
    bench::PopulateSpec spec;
    spec.machine = bench::benchMachine();
    spec.backend = backend;
    spec.workload = workload;
    spec.params.footprint = 64ull << 20;
    spec.params.seed = 1234;
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);
    return spec;
}

sim::PerfCounters
measure(Universe &u, std::uint64_t ops)
{
    workloads::runInterleaved(*u.ctx, *u.workload, ops);
    return u.ctx->totals();
}

bool
countersEqual(const sim::PerfCounters &a, const sim::PerfCounters &b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(SnapshotTest, ForkMatchesFreshPopulate)
{
    auto spec = testSpec("gups", BackendKind::Mitosis);

    // Twice through the cache: first call builds the donor, second
    // forks it. Both are forks (the cache always returns forks), so
    // this also covers fork-of-just-built.
    auto forked = bench::preparePopulated(spec);

    // Fresh build with the cache bypassed.
    setenv("MITOSIM_SNAPSHOTS", "0", 1);
    auto fresh = bench::preparePopulated(spec);
    unsetenv("MITOSIM_SNAPSHOTS");

    // Same per-socket frame accounting after populate.
    for (SocketId s = 0; s < forked->machine.numSockets(); ++s) {
        const mem::MemStats &a = forked->machine.physmem().stats(s);
        const mem::MemStats &b = fresh->machine.physmem().stats(s);
        EXPECT_EQ(a.dataPages, b.dataPages) << "socket " << s;
        EXPECT_EQ(a.dataLargePages, b.dataLargePages) << "socket " << s;
        EXPECT_EQ(a.ptPages, b.ptPages) << "socket " << s;
    }

    // Byte-identical measurement from either starting point.
    sim::PerfCounters a = measure(*forked, 3000);
    sim::PerfCounters b = measure(*fresh, 3000);
    EXPECT_TRUE(countersEqual(a, b));

    forked->finalize();
    fresh->finalize();
}

TEST(SnapshotTest, SiblingForksAreIsolated)
{
    auto spec = testSpec("memcached", BackendKind::Mitosis);

    // Run a workload on the first fork: sets A/D bits, rotates cache
    // and TLB state, moves counters.
    auto first = bench::preparePopulated(spec);
    sim::PerfCounters a = measure(*first, 3000);

    // A second fork from the same (now heavily exercised donor-shared
    // CoW chunks) must start from pristine populate state and produce
    // the identical measurement.
    auto second = bench::preparePopulated(spec);
    sim::PerfCounters b = measure(*second, 3000);
    EXPECT_TRUE(countersEqual(a, b));

    first->finalize();
    second->finalize();
}

TEST(SnapshotTest, ForkPassesInvariantBattery)
{
    for (BackendKind backend :
         {BackendKind::Native, BackendKind::Mitosis}) {
        auto spec = testSpec("xsbench", backend);
        auto u = bench::preparePopulated(spec);
        measure(*u, 1000);

        // The full vmcheck battery over the forked universe: replica
        // coherence, VMA/PTE agreement, frame accounting, CR3/ASID
        // liveness. Fail-fast config fatal()s on any violation.
        check::Checker checker(u->kernel, check::CheckConfig{});
        EXPECT_EQ(checker.runAll("snapshot fork"), 0u);
        u->finalize();
    }
}

TEST(SnapshotTest, ForkAfterCollapseSplitRecyclesTableSlots)
{
    auto spec = testSpec("gups", BackendKind::Mitosis);
    spec.params.thp = true; // huge-page-backed heap: splittable

    auto u = bench::preparePopulated(spec);
    mem::PhysicalMemory &pm = u->machine.physmem();
    ASSERT_FALSE(u->proc->vmas().empty());
    const VirtAddr heap = u->proc->vmas().begin()->first;

    // Split the first huge page inside the fork: demotion allocates a
    // fresh leaf table from this fork's arena, not the donor's.
    mem::TableArenaStats before = pm.tableArenaStats();
    ASSERT_TRUE(u->kernel.thp().splitAt(*u->proc, heap, nullptr));
    mem::TableArenaStats split = pm.tableArenaStats();
    EXPECT_GT(split.liveSlots, before.liveSlots);

    // Collapse it back, then split again: the leaf table freed by the
    // collapse must be recycled, not a new slot.
    ASSERT_TRUE(u->kernel.thp().collapseAt(*u->proc, heap, nullptr));
    ASSERT_TRUE(u->kernel.thp().splitAt(*u->proc, heap, nullptr));
    mem::TableArenaStats again = pm.tableArenaStats();
    EXPECT_GT(again.slotRecycles, split.slotRecycles);
    EXPECT_EQ(again.liveSlots, split.liveSlots);

    // The reshaped fork still passes the full invariant battery...
    check::Checker checker(u->kernel, check::CheckConfig{});
    EXPECT_EQ(checker.runAll("fork after collapse/split"), 0u);

    // ...and a sibling fork starts from the pristine donor state —
    // huge mapping intact, its own arena untouched by the reshaping.
    auto sibling = bench::preparePopulated(spec);
    EXPECT_EQ(sibling->kernel.ptOps()
                  .walk(sibling->proc->roots(), heap)
                  .size,
              PageSizeKind::Large2M);
    check::Checker sibchk(sibling->kernel, check::CheckConfig{});
    EXPECT_EQ(sibchk.runAll("sibling fork"), 0u);

    // A fork of the reshaped universe frees one huge page and splits
    // another; its donor keeps its 2 MB records, stats and invariants.
    const VirtAddr freed = heap + LargePageSize;
    const VirtAddr halved = heap + 2 * LargePageSize;
    auto head_of = [&](VirtAddr va) {
        pt::WalkResult w = u->kernel.ptOps().walk(u->proc->roots(), va);
        EXPECT_EQ(w.size, PageSizeKind::Large2M);
        return w.leaf.pfn();
    };
    const Pfn freed_head = head_of(freed);
    const Pfn halved_head = head_of(halved);
    std::vector<mem::MemStats> donor_stats;
    for (SocketId s = 0; s < u->machine.numSockets(); ++s)
        donor_stats.push_back(pm.stats(s));

    auto child = u->fork(spec.kernelCfg);
    child->kernel.munmap(*child->proc, freed, LargePageSize);
    ASSERT_TRUE(child->kernel.thp().splitAt(*child->proc, halved, nullptr));
    const mem::PhysicalMemory &cpm = child->machine.physmem();
    EXPECT_EQ(cpm.largeOwner(freed_head), -1);
    EXPECT_EQ(cpm.largeOwner(halved_head), -1);
    check::Checker childchk(child->kernel, check::CheckConfig{});
    EXPECT_EQ(childchk.runAll("fork frees and splits"), 0u);

    EXPECT_EQ(pm.largeOwner(freed_head), u->proc->id());
    EXPECT_EQ(pm.largeOwner(halved_head), u->proc->id());
    for (SocketId s = 0; s < u->machine.numSockets(); ++s) {
        const mem::MemStats &a = pm.stats(s);
        const mem::MemStats &b = donor_stats[static_cast<std::size_t>(s)];
        EXPECT_EQ(a.dataPages, b.dataPages) << s;
        EXPECT_EQ(a.dataLargePages, b.dataLargePages) << s;
        EXPECT_EQ(a.ptPages, b.ptPages) << s;
    }
    EXPECT_EQ(checker.runAll("donor after its fork"), 0u);

    child->finalize();
    u->finalize();
    sibling->finalize();
}

TEST(SnapshotTest, ReadOnlyPageTableSweepsNeverDetach)
{
    // A fork shares its donor's page-table arena chunks copy-on-write.
    // Reading the tree (both THP daemons sweep every leaf per tick)
    // must not copy a chunk; only a PTE store may.
    auto u = bench::preparePopulated(testSpec("xsbench",
                                              BackendKind::Mitosis));
    mem::PhysicalMemory &pm = u->machine.physmem();
    pt::PageTableOps &ops = u->kernel.ptOps();
    const pt::RootSet &roots = u->proc->roots();
    const std::uint64_t detaches = pm.tableArenaStats().detaches;

    std::uint64_t leaves = 0;
    VirtAddr first = 0;
    ops.forEachLeaf(roots, [&](VirtAddr va, pt::PteLoc, pt::Pte pte,
                               PageSizeKind size) {
        if (!leaves++)
            first = va;
        pt::WalkResult res = ops.walk(roots, va);
        EXPECT_TRUE(res.mapped);
        EXPECT_EQ(res.leaf.pfn(), pte.pfn());
        EXPECT_EQ(res.size, size);
    });
    std::uint64_t ranged = 0;
    ops.forRange(roots, 0, VirtAddr{1} << 48,
                 [&](VirtAddr, pt::PteLoc, pt::Pte, PageSizeKind) {
                     ++ranged;
                 });
    ASSERT_GT(leaves, 0u);
    EXPECT_EQ(ranged, leaves);
    EXPECT_NE(ops.tableFor(roots, first, 1), InvalidPfn);
    EXPECT_EQ(pm.tableArenaStats().detaches, detaches);

    // The chunks really were shared: the first store detaches one.
    u->kernel.mprotect(*u->proc, first, PageSize, os::ProtRead);
    EXPECT_GT(pm.tableArenaStats().detaches, detaches);
    u->finalize();
}

TEST(SnapshotTest, BackendPteReadsNeverDetach)
{
    // The backends' PTE reads must leave a fork's shared page-table
    // arena chunks shared too. The Mitosis fork is taken from a
    // replicated universe, so its reads cross the replica rings, and
    // dropping the replicas sweeps the (read-only) primary tree.
    for (BackendKind backend :
         {BackendKind::Native, BackendKind::Mitosis}) {
        SCOPED_TRACE(backend == BackendKind::Native ? "native" : "mitosis");
        bench::PopulateSpec spec = testSpec("xsbench", backend);
        auto donor = bench::preparePopulated(spec);
        if (backend == BackendKind::Mitosis) {
            ASSERT_TRUE(donor->mitosis().setReplicationMask(
                donor->proc->roots(), donor->proc->id(),
                SocketMask::all(donor->machine.numSockets())));
            donor->kernel.reloadContexts(*donor->proc);
        }
        auto u = donor->fork(spec.kernelCfg);
        mem::PhysicalMemory &pm = u->machine.physmem();
        pvops::PvOps &pv = u->kernel.backend();
        pt::RootSet &roots = u->proc->roots();
        const std::uint64_t detaches = pm.tableArenaStats().detaches;

        std::vector<pt::PteLoc> locs;
        u->kernel.ptOps().forEachLeaf(
            roots, [&](VirtAddr, pt::PteLoc loc, pt::Pte, PageSizeKind) {
                if (locs.size() < 64)
                    locs.push_back(loc);
            });
        ASSERT_EQ(locs.size(), 64u);
        pvops::KernelCost cost;
        for (const pt::PteLoc &loc : locs) {
            EXPECT_TRUE(pv.readPte(roots, loc, &cost).present());
            EXPECT_TRUE(pv.readPteMany(roots, loc, 3, &cost).present());
        }
        EXPECT_GT(cost.cycles, 0u);
        if (backend == BackendKind::Mitosis) {
            ASSERT_TRUE(u->mitosis().setReplicationMask(
                roots, u->proc->id(), SocketMask::none()));
            u->kernel.reloadContexts(*u->proc);
        }
        EXPECT_EQ(pm.tableArenaStats().detaches, detaches);
        u->finalize();
        donor->finalize();
    }
}

TEST(SnapshotTest, AnalysesAndChecksNeverDetach)
{
    // The page-table dump and the vmcheck battery only read the tree,
    // so on a fork of a replicated universe neither may copy a shared
    // page-table chunk.
    bench::PopulateSpec spec = testSpec("xsbench", BackendKind::Mitosis);
    auto donor = bench::preparePopulated(spec);
    ASSERT_TRUE(donor->mitosis().setReplicationMask(
        donor->proc->roots(), donor->proc->id(),
        SocketMask::all(donor->machine.numSockets())));
    ASSERT_EQ(donor->machine.numSockets(), 4);
    donor->kernel.reloadContexts(*donor->proc);
    auto u = donor->fork(spec.kernelCfg);
    mem::PhysicalMemory &pm = u->machine.physmem();
    const std::uint64_t detaches = pm.tableArenaStats().detaches;

    analysis::PtAnalyzer analyzer(pm, u->kernel.ptOps());
    EXPECT_GT(analyzer.snapshot(u->proc->roots()).totalLeafPtes(), 0u);
    for (SocketId s = 0; s < u->machine.numSockets(); ++s)
        EXPECT_GT(analyzer.snapshotFor(u->proc->roots(), s).totalLeafPtes(),
                  0u);
    EXPECT_EQ(pm.tableArenaStats().detaches, detaches);

    check::Checker checker(u->kernel, check::CheckConfig{});
    EXPECT_EQ(checker.runAll("replicated fork"), 0u);
    EXPECT_GT(checker.stats().replicaTablesCompared, 0u);
    EXPECT_EQ(pm.tableArenaStats().detaches, detaches);
    u->finalize();
    donor->finalize();
}

/** A captured native universe on the tiny machine, populated by gups. */
std::unique_ptr<Universe>
tinyDonor(std::uint64_t seed)
{
    auto u = std::make_unique<Universe>(sim::MachineConfig::tiny(),
                                        BackendKind::Native,
                                        core::MitosisConfig{},
                                        os::KernelConfig{});
    u->proc = &u->kernel.createProcess("gups", 0);
    u->ctx = std::make_unique<os::ExecContext>(u->kernel, *u->proc);
    u->ctx->addThread(0);
    workloads::WorkloadParams params;
    params.footprint = 1ull << 20;
    params.seed = seed;
    u->workload = workloads::makeWorkload("gups", params);
    u->workload->setup(*u->ctx);
    return u;
}

TEST(SnapshotTest, CacheEvictsLeastRecentlyUsedDonor)
{
    if (!SnapshotCache::enabled())
        GTEST_SKIP() << "MITOSIM_SNAPSHOTS=0 disables the cache";

    SnapshotCache cache; // local: the process-wide instance is untouched
    std::vector<int> builds(SnapshotCache::Cap + 1, 0);
    auto request = [&](std::size_t i) {
        return cache.populated(std::to_string(i), os::KernelConfig{},
                               [&builds, i] {
                                   ++builds[i];
                                   return tinyDonor(i);
                               });
    };

    for (std::size_t i = 0; i < SnapshotCache::Cap; ++i)
        request(i)->finalize();
    // Touch key 0 so key 1 becomes least recently used, then add one
    // key past the cap.
    request(0)->finalize();
    request(SnapshotCache::Cap)->finalize();
    ASSERT_EQ(builds[0], 1);
    ASSERT_EQ(builds[1], 1);

    request(0)->finalize();
    EXPECT_EQ(builds[0], 1) << "recently used donor was evicted";
    auto rebuilt = request(1);
    EXPECT_EQ(builds[1], 2) << "least recently used donor was kept";

    // The fork of the rebuilt donor starts from exactly the state a
    // fresh populate reaches.
    auto fresh = tinyDonor(1);
    for (SocketId s = 0; s < fresh->machine.numSockets(); ++s) {
        const mem::MemStats &a = rebuilt->machine.physmem().stats(s);
        const mem::MemStats &b = fresh->machine.physmem().stats(s);
        EXPECT_EQ(a.dataPages, b.dataPages) << "socket " << s;
        EXPECT_EQ(a.ptPages, b.ptPages) << "socket " << s;
    }
    EXPECT_TRUE(countersEqual(measure(*rebuilt, 2000),
                              measure(*fresh, 2000)));
}

TEST(SnapshotTest, FinalizeIsIdempotentAndDtorSafe)
{
    auto spec = testSpec("gups", BackendKind::Native);
    auto u = bench::preparePopulated(spec);
    u->finalize();
    u->finalize(); // second call: no-op
    u.reset();     // dtor after finalize: no double teardown

    // Dtor without explicit finalize must also clean up.
    auto v = bench::preparePopulated(spec);
    v.reset();
}

} // namespace
} // namespace mitosim::snapshot
