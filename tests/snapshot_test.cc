/**
 * @file
 * Tests for the snapshot subsystem (src/snapshot/): Universe forking
 * and its determinism contract — a job run from a fork of a populated
 * donor must be byte-identical to the same job run from a fresh
 * populate, sibling forks must never observe each other's writes, and
 * read-only sweeps of a fork must materialize no chunk of its store.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/pt_dump.h"
#include "src/base/rng.h"
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

/** Field-for-field equality of a plain counter struct. */
template <typename Stats>
bool
statsEqual(const Stats &a, const Stats &b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/**
 * The materialized chunks of a universe's store. Reads take const views
 * only (tableView, const meta), which never materialize a chunk, so a
 * read-only sweep leaves this unchanged; a detach, in these tests'
 * names, is any chunk a read would make.
 */
struct StoreChunks
{
    std::size_t meta;
    std::uint64_t table;

    explicit StoreChunks(const mem::PhysicalMemory &pm)
        : meta(pm.metaChunksMaterialized()), table(pm.tableArenaStats().chunks)
    {
    }

    bool operator==(const StoreChunks &) const = default;
};

TEST(SnapshotTest, ForkMatchesFreshPopulate)
{
    auto spec = testSpec("gups", BackendKind::Mitosis);
    auto donor = bench::preparePopulated(spec);
    auto forked = donor->fork(spec.kernelCfg);
    auto fresh = bench::preparePopulated(spec);

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
    EXPECT_TRUE(statsEqual(a, b));

    forked->finalize();
    fresh->finalize();
    donor->finalize();
}

TEST(SnapshotTest, SiblingForksAreIsolated)
{
    auto spec = testSpec("memcached", BackendKind::Mitosis);
    auto donor = bench::preparePopulated(spec);

    // Run a workload on the first fork: sets A/D bits, rotates cache
    // and TLB state, moves counters.
    auto first = donor->fork(spec.kernelCfg);
    sim::PerfCounters a = measure(*first, 3000);

    // A second fork from the same donor must start from pristine
    // populate state and produce the identical measurement.
    auto second = donor->fork(spec.kernelCfg);
    sim::PerfCounters b = measure(*second, 3000);
    EXPECT_TRUE(statsEqual(a, b));

    first->finalize();
    second->finalize();
    donor->finalize();
}

/**
 * Age @p u the way ext_thp_aging does after populate: replicate, then
 * phases of replay followed by THP daemon and AutoNUMA ticks.
 */
void
ageUnderDaemons(Universe &u)
{
    ASSERT_TRUE(u.mitosis().setReplicationMask(
        u.proc->roots(), u.proc->id(),
        SocketMask::all(u.machine.numSockets())));
    u.kernel.reloadContexts(*u.proc);
    u.kernel.enableAutoNuma(*u.proc, true);
    Rng rng(0x5eedull);
    for (int phase = 0; phase < 4; ++phase) {
        workloads::runInterleaved(*u.ctx, *u.workload, 2000);
        u.kernel.thpTick();
        u.kernel.thpTick();
        u.kernel.autoNumaTick(0.05, rng);
    }
}

TEST(SnapshotTest, ForkMatchesFreshUnderThpDaemonsAndAutoNuma)
{
    // ext_thp_aging's shape: a THP populate into half-fragmented
    // memory, then khugepaged, kcompactd and AutoNUMA all acting on
    // the fork. Every frame pin, 2 MB record and daemon cursor the
    // fork missed would surface as a diverging decision here. 64 MiB
    // sockets make the 160 MiB footprint outgrow the unfragmented
    // blocks, so populate mixes 2 MB and 4 KB pages.
    auto spec = testSpec("memcached", BackendKind::Mitosis);
    spec.machine.topo.memPerSocket = 64ull << 20;
    spec.params.footprint = 160ull << 20;
    spec.params.thp = true;
    spec.fragmentation = 0.5;
    spec.fragSeed = 0xf7a6ull;
    spec.kernelCfg.thp.splitPartial = true;
    spec.kernelCfg.thp.khugepaged = true;
    spec.kernelCfg.thp.kcompactd = true;

    auto donor = bench::preparePopulated(spec);
    auto forked = donor->fork(spec.kernelCfg);
    auto fresh = bench::preparePopulated(spec);
    ageUnderDaemons(*forked);
    ageUnderDaemons(*fresh);

    EXPECT_TRUE(statsEqual(forked->ctx->totals(), fresh->ctx->totals()));
    for (SocketId s = 0; s < fresh->machine.numSockets(); ++s)
        EXPECT_TRUE(statsEqual(forked->machine.physmem().stats(s),
                               fresh->machine.physmem().stats(s)))
            << "socket " << s;
    const os::thp::ThpStats &ts = fresh->kernel.thp().stats();
    EXPECT_TRUE(statsEqual(forked->kernel.thp().stats(), ts));
    const os::AutoNuma::Stats &as = fresh->kernel.autoNuma().stats();
    EXPECT_TRUE(statsEqual(forked->kernel.autoNuma().stats(), as));
    EXPECT_EQ(forked->machine.metrics().flatten(),
              fresh->machine.metrics().flatten());
    // The daemons really acted, or the comparison proves little.
    EXPECT_GT(ts.collapses, 0u);
    EXPECT_GT(ts.compactionPagesMoved, 0u);
    EXPECT_GT(as.hintFaults, 0u);

    forked->finalize();
    fresh->finalize();
    donor->finalize();
}

TEST(SnapshotTest, ForkPassesInvariantBattery)
{
    for (BackendKind backend :
         {BackendKind::Native, BackendKind::Mitosis}) {
        auto spec = testSpec("xsbench", backend);
        auto donor = bench::preparePopulated(spec);
        auto u = donor->fork(spec.kernelCfg);
        measure(*u, 1000);

        // The full vmcheck battery over the forked universe: replica
        // coherence, VMA/PTE agreement, frame accounting, CR3/ASID
        // liveness. Fail-fast config fatal()s on any violation.
        check::Checker checker(u->kernel, check::CheckConfig{});
        EXPECT_EQ(checker.runAll("snapshot fork"), 0u);
        u->finalize();
        donor->finalize();
    }
}

TEST(SnapshotTest, ForkAfterCollapseSplitRecyclesTableSlots)
{
    auto spec = testSpec("gups", BackendKind::Mitosis);
    spec.params.thp = true; // huge-page-backed heap: splittable

    auto donor = bench::preparePopulated(spec);
    auto u = donor->fork(spec.kernelCfg);
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
    auto sibling = donor->fork(spec.kernelCfg);
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
    donor->finalize();
}

TEST(SnapshotTest, ReadOnlyPageTableSweepsNeverDetach)
{
    // Reading a fork's tree (both THP daemons sweep every leaf per
    // tick) must materialize no chunk of its store, and a PTE store in
    // the fork must not reach the donor.
    auto spec = testSpec("xsbench", BackendKind::Mitosis);
    auto donor = bench::preparePopulated(spec);
    auto u = donor->fork(spec.kernelCfg);
    mem::PhysicalMemory &pm = u->machine.physmem();
    pt::PageTableOps &ops = u->kernel.ptOps();
    const pt::RootSet &roots = u->proc->roots();
    const StoreChunks chunks(pm);

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
    EXPECT_EQ(StoreChunks(pm), chunks);

    // The first store lands in the fork's own copy only.
    pt::PageTableOps &donorOps = donor->kernel.ptOps();
    const pt::RootSet &donorRoots = donor->proc->roots();
    const pt::Pte donorLeaf = donorOps.walk(donorRoots, first).leaf;
    ASSERT_TRUE(donorLeaf.writable());
    u->kernel.mprotect(*u->proc, first, PageSize, os::ProtRead);
    EXPECT_FALSE(ops.walk(roots, first).leaf.writable());
    EXPECT_EQ(donorOps.walk(donorRoots, first).leaf, donorLeaf);
    u->finalize();
    donor->finalize();
}

TEST(SnapshotTest, BackendPteReadsNeverDetach)
{
    // The backends' PTE reads must materialize no chunk of a fork's
    // store either. The Mitosis fork is taken from a replicated
    // universe, so its reads cross the replica rings, and dropping the
    // replicas sweeps the (read-only) primary tree.
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
        const StoreChunks chunks(pm);

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
        // Dropping replicas frees table slots; it allocates no chunk.
        EXPECT_EQ(StoreChunks(pm).meta, chunks.meta);
        EXPECT_LE(StoreChunks(pm).table, chunks.table);
        u->finalize();
        donor->finalize();
    }
}

TEST(SnapshotTest, AnalysesAndChecksNeverDetach)
{
    // The page-table dump and the vmcheck battery only read the tree,
    // so on a fork of a replicated universe neither may materialize a
    // chunk of its store.
    bench::PopulateSpec spec = testSpec("xsbench", BackendKind::Mitosis);
    auto donor = bench::preparePopulated(spec);
    ASSERT_TRUE(donor->mitosis().setReplicationMask(
        donor->proc->roots(), donor->proc->id(),
        SocketMask::all(donor->machine.numSockets())));
    ASSERT_EQ(donor->machine.numSockets(), 4);
    donor->kernel.reloadContexts(*donor->proc);
    auto u = donor->fork(spec.kernelCfg);
    mem::PhysicalMemory &pm = u->machine.physmem();
    const StoreChunks chunks(pm);

    analysis::PtAnalyzer analyzer(pm, u->kernel.ptOps());
    EXPECT_GT(analyzer.snapshot(u->proc->roots()).totalLeafPtes(), 0u);
    for (SocketId s = 0; s < u->machine.numSockets(); ++s)
        EXPECT_GT(analyzer.snapshotFor(u->proc->roots(), s).totalLeafPtes(),
                  0u);
    EXPECT_EQ(StoreChunks(pm), chunks);

    check::Checker checker(u->kernel, check::CheckConfig{});
    EXPECT_EQ(checker.runAll("replicated fork"), 0u);
    EXPECT_GT(checker.stats().replicaTablesCompared, 0u);
    EXPECT_EQ(StoreChunks(pm), chunks);
    u->finalize();
    donor->finalize();
}

TEST(SnapshotTest, FinalizeIsIdempotentAndDtorSafe)
{
    auto spec = testSpec("gups", BackendKind::Native);
    auto donor = bench::preparePopulated(spec);
    auto u = donor->fork(spec.kernelCfg);
    u->finalize();
    u->finalize(); // second call: no-op
    u.reset();     // dtor after finalize: no double teardown

    // Dtor without explicit finalize must also clean up, for a fork
    // and for the donor it came from.
    auto v = donor->fork(spec.kernelCfg);
    v.reset();
    donor.reset();
}

} // namespace
} // namespace mitosim::snapshot
