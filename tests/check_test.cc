/**
 * @file
 * vmcheck deliberate-corruption tests: for each invariant class, mutate
 * kernel state *behind* the API (the exact bug shapes past PRs shipped:
 * stale CR3s, orphaned frames, skipped replica updates, mis-protected
 * VMAs, uncharged fault work) and assert the checker reports precisely
 * that violation class — plus clean-machine runs proving zero false
 * positives on healthy state.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "src/base/logging.h"
#include "src/check/vmcheck.h"
#include "src/core/mitosis.h"
#include "src/os/kernel.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::check
{
namespace
{

/**
 * The suite drives its own Checker instances against deliberately
 * corrupted kernels; an environment-enabled in-kernel checker would
 * fatal() at the teardown syscalls before the assertions run.
 */
sim::MachineConfig
tinyNoEnvCheck()
{
    unsetenv("MITOSIM_CHECK");
    return sim::MachineConfig::tiny();
}

CheckConfig
collectAll()
{
    CheckConfig cfg;
    cfg.enabled = true;
    cfg.failFast = false;
    return cfg;
}

int
countClass(const Checker &chk, CheckClass cls)
{
    int n = 0;
    for (const Violation &v : chk.violations()) {
        if (v.cls == cls)
            ++n;
    }
    return n;
}

class CheckTest : public ::testing::Test
{
  protected:
    CheckTest()
        : machine(tinyNoEnvCheck()),
          native(machine.physmem()),
          kernel(machine, native)
    {
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    os::Kernel kernel;
};

TEST_F(CheckTest, CleanMachinePasses)
{
    os::Process &p = kernel.createProcess("clean", 0);
    kernel.mmap(p, 4ull << 20, os::MmapOptions{.populate = true});
    Checker chk(kernel, collectAll());
    EXPECT_EQ(chk.runAll("test"), 0u);
    EXPECT_TRUE(chk.violations().empty());
    EXPECT_EQ(chk.stats().checkpoints, 1u);
    EXPECT_EQ(chk.stats().checksRun, 5u);
    EXPECT_GT(chk.stats().leavesChecked, 0u);
    EXPECT_GT(chk.stats().framesAccounted, 0u);
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, MisProtectedVmaTrips)
{
    os::Process &p = kernel.createProcess("rw", 0);
    auto region =
        kernel.mmap(p, 16 * PageSize, os::MmapOptions{.populate = true});

    // PR 3's bug shape: VMA metadata flips to read-only but the PTEs
    // keep PteWrite (here: mutate the tree behind the kernel's back).
    p.protectVmaRange(region.start, region.end(), os::ProtRead);

    Checker chk(kernel, collectAll());
    chk.checkVmaPteAgreement();
    EXPECT_GT(countClass(chk, CheckClass::VmaPteAgreement), 0);
    const Violation &v = chk.violations().front();
    EXPECT_EQ(v.pid, p.id());
    EXPECT_GE(v.vaStart, region.start);

    // The other classes stay quiet: the corruption is VMA-metadata only.
    chk.clearViolations();
    chk.checkReplicaCoherence();
    chk.checkFrameAccounting();
    chk.checkCr3AsidLiveness();
    chk.checkChargeConservation();
    EXPECT_TRUE(chk.violations().empty());

    p.protectVmaRange(region.start, region.end(),
                      os::ProtRead | os::ProtWrite);
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, LeafOutsideAnyVmaTrips)
{
    os::Process &p = kernel.createProcess("handmap", 0);
    // Map a page through the pt-ops layer with no VMA over it.
    VirtAddr va = 0x500000000ull;
    auto pfn = machine.physmem().allocData(0, p.id());
    ASSERT_TRUE(pfn.has_value());
    ASSERT_TRUE(kernel.ptOps().map4K(p.roots(), p.id(), va, *pfn,
                                     pt::PteWrite, p.ptPolicy, 0,
                                     nullptr));

    Checker chk(kernel, collectAll());
    chk.checkVmaPteAgreement();
    EXPECT_EQ(countClass(chk, CheckClass::VmaPteAgreement), 1);
    EXPECT_EQ(chk.violations().front().vaStart, va);

    kernel.destroyProcess(p); // destroy frees the hand-mapped leaf too
}

TEST_F(CheckTest, OrphanedFrameTrips)
{
    os::Process &p = kernel.createProcess("orphan", 0);
    kernel.mmap(p, 8 * PageSize, os::MmapOptions{.populate = true});

    // PR 5's pmd_none bug shape: a frame charged to a live process that
    // no page-table reaches any more.
    auto orphan = machine.physmem().allocData(0, p.id());
    ASSERT_TRUE(orphan.has_value());

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);
    EXPECT_EQ(chk.violations().front().pid, p.id());
    EXPECT_EQ(chk.violations().front().socket, 0);

    machine.physmem().freeData(*orphan);
    chk.clearViolations();
    chk.checkFrameAccounting();
    EXPECT_TRUE(chk.violations().empty());
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, DoubleOwnedFrameTrips)
{
    os::Process &p = kernel.createProcess("double", 0);
    auto region =
        kernel.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});

    // Alias one data frame at a second VA behind the kernel's back.
    pt::WalkResult w = kernel.ptOps().walk(p.roots(), region.start);
    ASSERT_TRUE(w.mapped);
    VirtAddr alias = 0x600000000ull;
    ASSERT_TRUE(kernel.ptOps().map4K(p.roots(), p.id(), alias,
                                     w.leaf.pfn(), pt::PteWrite,
                                     p.ptPolicy, 0, nullptr));

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_GT(countClass(chk, CheckClass::FrameAccounting), 0);

    // Drop the alias without freeing the (shared) data frame, so
    // destroyProcess doesn't double-free it.
    kernel.ptOps().unmapRange(p.roots(), alias, alias + PageSize,
                              [](VirtAddr, pt::Pte, PageSizeKind) {},
                              nullptr);
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, ReachedFrameInUntouchedChunkTrips)
{
    // A free frame whose metadata chunk was never materialized: the
    // sweep must still visit it when a page-table reaches it.
    const mem::PhysicalMemory &pm = machine.physmem();
    Pfn last = machine.topology().totalFrames() - 1;
    ASSERT_FALSE(pm.metaMaterialized(last));
    os::Process &p = kernel.createProcess("stray", 0);
    VirtAddr va = 0x500000000ull;
    ASSERT_TRUE(kernel.ptOps().map4K(p.roots(), p.id(), va, last,
                                     pt::PteWrite, p.ptPolicy, 0,
                                     nullptr));
    ASSERT_FALSE(pm.metaMaterialized(last));

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);

    kernel.ptOps().unmapRange(p.roots(), va, va + PageSize,
                              [](VirtAddr, pt::Pte, PageSizeKind) {},
                              nullptr);
    kernel.destroyProcess(p);
}

/**
 * Pin one fragmentation filler in every 2 MB block of the machine and
 * return the lowest one.
 */
Pfn
fragmentAndFindPin(sim::Machine &machine)
{
    mem::PhysicalMemory &pm = machine.physmem();
    Rng rng(9);
    for (SocketId s = 0; s < machine.numSockets(); ++s)
        pm.fragment(s, 1.0, rng);
    Pfn pin = 0;
    while (pin < machine.topology().totalFrames() && !pm.isFragPinned(pin))
        ++pin;
    return pin;
}

TEST_F(CheckTest, FragmentedMachinePasses)
{
    fragmentAndFindPin(machine);
    os::Process &p = kernel.createProcess("fragmented", 0);
    kernel.mmap(p, 4ull << 20, os::MmapOptions{.populate = true});
    Checker chk(kernel, collectAll());
    EXPECT_EQ(chk.runAll("test"), 0u);
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, PinOnFreeFrameTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    Pfn pin = fragmentAndFindPin(machine);
    ASSERT_TRUE(pm.isFragPinned(pin));

    // Free the filler through the data path, behind the pin bitmap's
    // back: the allocator says free, the bit still says filler.
    pm.meta(pin).type = mem::FrameType::Data;
    pm.freeData(pin);

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);
}

TEST_F(CheckTest, RetypedPinTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    Pfn pin = fragmentAndFindPin(machine);
    ASSERT_TRUE(pm.isFragPinned(pin));
    pm.meta(pin).type = mem::FrameType::Data;

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);

    pm.meta(pin).type = mem::FrameType::Free;
    chk.clearViolations();
    chk.checkFrameAccounting();
    EXPECT_TRUE(chk.violations().empty());
}

TEST_F(CheckTest, UntypedUnpinnedFrameTripsOnFragmentedMachine)
{
    mem::PhysicalMemory &pm = machine.physmem();
    fragmentAndFindPin(machine);
    auto pfn = pm.allocData(0, -1);
    ASSERT_TRUE(pfn.has_value());
    ASSERT_FALSE(pm.isFragPinned(*pfn));
    pm.meta(*pfn).type = mem::FrameType::Free;

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);

    pm.meta(*pfn).type = mem::FrameType::Data;
    pm.freeData(*pfn);
    chk.clearViolations();
    chk.checkFrameAccounting();
    EXPECT_TRUE(chk.violations().empty());
}

TEST_F(CheckTest, MappedPinTrips)
{
    Pfn pin = fragmentAndFindPin(machine);
    ASSERT_TRUE(machine.physmem().isFragPinned(pin));
    os::Process &p = kernel.createProcess("mapped-pin", 0);
    VirtAddr va = 0x500000000ull;
    ASSERT_TRUE(kernel.ptOps().map4K(p.roots(), p.id(), va, pin,
                                     pt::PteWrite, p.ptPolicy, 0,
                                     nullptr));

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);
    for (const Violation &v : chk.violations())
        EXPECT_EQ(v.pid, p.id());

    // Drop the mapping without freeing the filler.
    kernel.ptOps().unmapRange(p.roots(), va, va + PageSize,
                              [](VirtAddr, pt::Pte, PageSizeKind) {},
                              nullptr);
    kernel.destroyProcess(p);
}

/** Owner of hand-made 2 MB pages: a pid no test process has. */
constexpr ProcId NoProc = 99;

/** No-op unmap callback: drop a hand-made mapping, free no frame. */
void
keepFrames(VirtAddr, pt::Pte, PageSizeKind)
{
}

TEST_F(CheckTest, PartlyFreedLargeBlockTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    auto head = pm.allocDataLarge(0, NoProc);
    ASSERT_TRUE(head.has_value());
    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    ASSERT_TRUE(chk.violations().empty());

    // Free one frame through the 4 KB path, behind the record's back:
    // the frame's metadata ends pristine, the block partly free.
    pm.meta(*head + 3).type = mem::FrameType::Data;
    pm.freeData(*head + 3);
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);
}

TEST_F(CheckTest, LargePageFrameWithOwnMetaTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    auto head = pm.allocDataLarge(0, NoProc);
    ASSERT_TRUE(head.has_value());
    pm.meta(*head + 7).owner = 3;

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    EXPECT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);

    pm.meta(*head + 7).owner = -1;
    chk.clearViolations();
    chk.checkFrameAccounting();
    EXPECT_TRUE(chk.violations().empty());
    pm.freeDataLarge(*head);
}

TEST_F(CheckTest, LargeLeafWithoutRecordTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    os::Process &p = kernel.createProcess("no-record", 0);
    // A split block: fully allocated, 512 Data frames, no 2 MB record.
    auto head = pm.allocDataLarge(0, NoProc);
    ASSERT_TRUE(head.has_value());
    pm.splitLargeData(*head);
    VirtAddr va = 0x40000000ull;
    ASSERT_TRUE(kernel.ptOps().map2M(p.roots(), p.id(), va, *head,
                                     pt::PteWrite, p.ptPolicy, 0,
                                     nullptr));

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    ASSERT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);
    EXPECT_EQ(chk.violations().front().pid, p.id());

    kernel.ptOps().unmapRange(p.roots(), va, va + LargePageSize,
                              keepFrames, nullptr);
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, SmallLeafInsideLargePageTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    os::Process &p = kernel.createProcess("inside-2m", 0);
    auto head = pm.allocDataLarge(0, NoProc);
    ASSERT_TRUE(head.has_value());
    VirtAddr va = 0x500000000ull;
    ASSERT_TRUE(kernel.ptOps().map4K(p.roots(), p.id(), va, *head + 5,
                                     pt::PteWrite, p.ptPolicy, 0,
                                     nullptr));

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    ASSERT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);
    EXPECT_EQ(chk.violations().front().pid, p.id());

    kernel.ptOps().unmapRange(p.roots(), va, va + PageSize, keepFrames,
                              nullptr);
    kernel.destroyProcess(p);
    pm.freeDataLarge(*head);
}

TEST_F(CheckTest, OrphanedLargePageTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    os::Process &p = kernel.createProcess("orphan-2m", 0);
    auto head = pm.allocDataLarge(0, p.id());
    ASSERT_TRUE(head.has_value());

    Checker chk(kernel, collectAll());
    chk.checkFrameAccounting();
    ASSERT_EQ(countClass(chk, CheckClass::FrameAccounting), 1);
    EXPECT_EQ(chk.violations().front().pid, p.id());

    pm.freeDataLarge(*head);
    chk.clearViolations();
    chk.checkFrameAccounting();
    EXPECT_TRUE(chk.violations().empty());
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, ReservedCountOffPtCacheSizeTrips)
{
    mem::PhysicalMemory &pm = machine.physmem();
    pm.setPtCacheTarget(0, 4);
    ASSERT_EQ(pm.ptCacheSize(0), 4u);
    Pfn reserved = 0;
    while (reserved < machine.topology().framesPerSocket() &&
           std::as_const(pm).meta(reserved).type != mem::FrameType::Reserved)
        ++reserved;
    ASSERT_LT(reserved, machine.topology().framesPerSocket());

    Checker chk(kernel, collectAll());
    chk.checkChargeConservation();
    ASSERT_TRUE(chk.violations().empty());

    // Retype one cached frame: the cache still counts 4, the frames 3.
    pm.meta(reserved).type = mem::FrameType::Free;
    chk.checkChargeConservation();
    EXPECT_EQ(countClass(chk, CheckClass::ChargeConservation), 1);

    pm.meta(reserved).type = mem::FrameType::Reserved;
    chk.clearViolations();
    chk.checkChargeConservation();
    EXPECT_TRUE(chk.violations().empty());
    pm.setPtCacheTarget(0, 0);
}

TEST_F(CheckTest, StaleCr3Trips)
{
    os::Process &p = kernel.createProcess("dying", 0);
    kernel.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    Pfn root = p.roots().primaryRoot;
    kernel.destroyProcess(p);

    // PR 4's bug shape: a core still holding a dead process's root.
    machine.core(0).loadCr3(root, 0, false);

    Checker chk(kernel, collectAll());
    chk.checkCr3AsidLiveness();
    EXPECT_GT(countClass(chk, CheckClass::Cr3AsidLiveness), 0);

    machine.core(0).clearContext();
    chk.clearViolations();
    chk.checkCr3AsidLiveness();
    EXPECT_TRUE(chk.violations().empty());
}

TEST_F(CheckTest, UnbalancedFaultLedgerTrips)
{
    Checker chk(kernel, collectAll());
    chk.checkChargeConservation();
    EXPECT_TRUE(chk.violations().empty()); // 0 == 0 conserves

    // A fault path that banked cycles into a kind bucket but never the
    // total (or vice versa) is exactly a missed-charge bug.
    chk.noteFaultCharge(FaultCharge::Demand, 1234);
    chk.checkChargeConservation();
    EXPECT_EQ(countClass(chk, CheckClass::ChargeConservation), 1);

    chk.noteFaultTotal(1234);
    chk.clearViolations();
    chk.checkChargeConservation();
    EXPECT_TRUE(chk.violations().empty());
}

TEST_F(CheckTest, FailFastThrowsOnViolation)
{
    os::Process &p = kernel.createProcess("fatal", 0);
    auto region =
        kernel.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    p.protectVmaRange(region.start, region.end(), os::ProtRead);

    CheckConfig cfg = collectAll();
    cfg.failFast = true;
    Checker chk(kernel, cfg);
    EXPECT_THROW(chk.runAll("test"), SimError);
    EXPECT_FALSE(chk.violations().empty()); // recorded before the throw

    p.protectVmaRange(region.start, region.end(),
                      os::ProtRead | os::ProtWrite);
    kernel.destroyProcess(p);
}

TEST_F(CheckTest, EnvConfigParsing)
{
    setenv("MITOSIM_CHECK", "1", 1);
    setenv("MITOSIM_CHECK_LEVEL", "end", 1);
    setenv("MITOSIM_CHECK_FAILFAST", "0", 1);
    CheckConfig cfg = CheckConfig::fromEnv(CheckConfig{});
    EXPECT_TRUE(cfg.enabled);
    EXPECT_FALSE(cfg.atSyscalls);
    EXPECT_FALSE(cfg.atThpTicks);
    EXPECT_FALSE(cfg.atDispatch);
    EXPECT_FALSE(cfg.failFast);

    setenv("MITOSIM_CHECK_LEVEL", "dispatch", 1);
    cfg = CheckConfig::fromEnv(CheckConfig{});
    EXPECT_TRUE(cfg.atSyscalls);
    EXPECT_TRUE(cfg.atDispatch);

    setenv("MITOSIM_CHECK", "0", 1);
    cfg = CheckConfig::fromEnv(CheckConfig{});
    EXPECT_FALSE(cfg.enabled);

    unsetenv("MITOSIM_CHECK");
    unsetenv("MITOSIM_CHECK_LEVEL");
    unsetenv("MITOSIM_CHECK_FAILFAST");
}

TEST_F(CheckTest, UnknownCheckLevelIsFatal)
{
    // A misspelt level must not silently check at the default one.
    // fatal() throws SimError, which is how the simulator dies.
    setenv("MITOSIM_CHECK_LEVEL", "syscalls", 1);
    try {
        CheckConfig::fromEnv(CheckConfig{});
        ADD_FAILURE() << "unknown MITOSIM_CHECK_LEVEL was accepted";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("'syscalls'"),
                  std::string::npos)
            << e.what();
    }
    unsetenv("MITOSIM_CHECK_LEVEL");
}

TEST_F(CheckTest, KernelRunsCheckpointsWhenConfigured)
{
    os::KernelConfig kc;
    kc.check.enabled = true;
    os::Kernel checked(machine, native, kc);
    ASSERT_NE(checked.checker(), nullptr);
    os::Process &p = checked.createProcess("ok", 0);
    checked.mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    EXPECT_GE(checked.checker()->stats().checkpoints, 2u);
    EXPECT_EQ(checked.checker()->stats().violations, 0u);
    checked.destroyProcess(p);
    checked.checker()->atEndOfRun();
    EXPECT_TRUE(checked.checker()->violations().empty());
}

TEST_F(CheckTest, KernelWithoutConfigHasNoChecker)
{
    EXPECT_EQ(kernel.checker(), nullptr);
}

/** Mitosis-backend fixture: replicated page-tables to corrupt. */
class MitosisCheckTest : public ::testing::Test
{
  protected:
    MitosisCheckTest()
        : machine(tinyNoEnvCheck()),
          backend(machine.physmem()),
          kernel(machine, backend)
    {
    }

    sim::Machine machine;
    core::MitosisBackend backend;
    os::Kernel kernel;
};

TEST_F(MitosisCheckTest, CleanReplicatedTreePasses)
{
    os::Process &p = kernel.createProcess("repl", 0);
    SocketMask mask;
    mask.set(0);
    mask.set(1);
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(), mask,
                                           nullptr));
    kernel.mmap(p, 4ull << 20, os::MmapOptions{.populate = true});

    Checker chk(kernel, collectAll());
    EXPECT_EQ(chk.runAll("test"), 0u);
    EXPECT_GT(chk.stats().replicaTablesCompared, 0u);
    kernel.destroyProcess(p);
}

TEST_F(MitosisCheckTest, SkippedReplicaUpdateTrips)
{
    os::Process &p = kernel.createProcess("repl", 0);
    SocketMask mask;
    mask.set(0);
    mask.set(1);
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(), mask,
                                           nullptr));
    auto region =
        kernel.mmap(p, 16 * PageSize, os::MmapOptions{.populate = true});

    // The §4 strawman bug: an update applied to the primary leaf but
    // never propagated — here forged by flipping PteWrite in socket 1's
    // replica of the leaf table only.
    pt::WalkResult w = kernel.ptOps().walk(p.roots(), region.start);
    ASSERT_TRUE(w.mapped);
    Pfn replica_l1 =
        machine.physmem().replicaOnSocket(w.loc.ptPfn, 1);
    ASSERT_NE(replica_l1, w.loc.ptPfn); // distinct socket-1 copy
    std::uint64_t &slot =
        machine.physmem().table(replica_l1)[w.loc.index];
    slot ^= pt::PteWrite;

    Checker chk(kernel, collectAll());
    chk.checkReplicaCoherence();
    EXPECT_EQ(countClass(chk, CheckClass::ReplicaCoherence), 1);
    const Violation &v = chk.violations().front();
    EXPECT_EQ(v.pid, p.id());
    EXPECT_EQ(v.socket, 1);
    EXPECT_EQ(v.vaStart, region.start);

    slot ^= pt::PteWrite; // repair
    chk.clearViolations();
    chk.checkReplicaCoherence();
    EXPECT_TRUE(chk.violations().empty());
    kernel.destroyProcess(p);
}

TEST_F(MitosisCheckTest, MissingReplicaEntryTrips)
{
    os::Process &p = kernel.createProcess("repl", 0);
    SocketMask mask;
    mask.set(0);
    mask.set(1);
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(), mask,
                                           nullptr));
    auto region =
        kernel.mmap(p, 16 * PageSize, os::MmapOptions{.populate = true});

    pt::WalkResult w = kernel.ptOps().walk(p.roots(), region.start);
    ASSERT_TRUE(w.mapped);
    Pfn replica_l1 =
        machine.physmem().replicaOnSocket(w.loc.ptPfn, 1);
    std::uint64_t &slot =
        machine.physmem().table(replica_l1)[w.loc.index];
    std::uint64_t saved = slot;
    slot = 0; // replica never saw the install

    Checker chk(kernel, collectAll());
    chk.checkReplicaCoherence();
    EXPECT_EQ(countClass(chk, CheckClass::ReplicaCoherence), 1);

    slot = saved;
    kernel.destroyProcess(p);
}

TEST_F(MitosisCheckTest, AccessedDirtyDivergenceIsLegal)
{
    os::Process &p = kernel.createProcess("repl", 0);
    SocketMask mask;
    mask.set(0);
    mask.set(1);
    ASSERT_TRUE(backend.setReplicationMask(p.roots(), p.id(), mask,
                                           nullptr));
    auto region =
        kernel.mmap(p, 16 * PageSize, os::MmapOptions{.populate = true});

    // §5.4: hardware walkers set A/D in whichever replica they walked;
    // the read path ORs. Divergent A/D must NOT be a violation.
    pt::WalkResult w = kernel.ptOps().walk(p.roots(), region.start);
    ASSERT_TRUE(w.mapped);
    Pfn replica_l1 =
        machine.physmem().replicaOnSocket(w.loc.ptPfn, 1);
    machine.physmem().table(replica_l1)[w.loc.index] |=
        pt::PteAccessed | pt::PteDirty;

    Checker chk(kernel, collectAll());
    chk.checkReplicaCoherence();
    EXPECT_TRUE(chk.violations().empty());
    kernel.destroyProcess(p);
}

/** Time-shared fixture: entry-level TLB/PWC liveness applies. */
class TimeSharedCheckTest : public ::testing::Test
{
  protected:
    TimeSharedCheckTest()
        : machine(tinyNoEnvCheck()), native(machine.physmem())
    {
        os::KernelConfig kc;
        kc.sched.timeShared = true;
        kernel = std::make_unique<os::Kernel>(machine, native, kc);
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    std::unique_ptr<os::Kernel> kernel;
};

TEST_F(TimeSharedCheckTest, DeadAsidTlbEntryTrips)
{
    os::Process &p = kernel->createProcess("tenant", 0);
    kernel->mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});

    // A TLB entry whose ASID no live process owns: the state
    // removeProcess's selective flushes exist to prevent.
    auto &tlb = machine.core(0).tlb();
    Asid saved = tlb.asid();
    tlb.setAsid(3333);
    tlb.insert(0x7000000000ull,
               tlb::TlbEntry{42, true, PageSizeKind::Base4K});
    tlb.setAsid(saved);

    Checker chk(*kernel, collectAll());
    chk.checkCr3AsidLiveness();
    // Once per resident copy (insert fills both L1 and L2).
    EXPECT_GT(countClass(chk, CheckClass::Cr3AsidLiveness), 0);

    tlb.flushAsid(3333);
    chk.clearViolations();
    chk.checkCr3AsidLiveness();
    EXPECT_TRUE(chk.violations().empty());
    kernel->destroyProcess(p);
}

TEST_F(TimeSharedCheckTest, StaleTlbTranslationTrips)
{
    os::Process &p = kernel->createProcess("tenant", 0);
    auto region =
        kernel->mmap(p, 4 * PageSize, os::MmapOptions{.populate = true});
    pt::WalkResult w = kernel->ptOps().walk(p.roots(), region.start);
    ASSERT_TRUE(w.mapped);

    // An entry the shootdown protocol missed: live ASID, but mapping a
    // frame the PTE no longer references.
    auto &tlb = machine.core(0).tlb();
    Asid saved = tlb.asid();
    tlb.setAsid(p.asid);
    tlb.insert(region.start,
               tlb::TlbEntry{w.leaf.pfn() + 1, false,
                             PageSizeKind::Base4K});
    tlb.setAsid(saved);

    Checker chk(*kernel, collectAll());
    chk.checkCr3AsidLiveness();
    EXPECT_GT(countClass(chk, CheckClass::Cr3AsidLiveness), 0);

    tlb.flushAsid(p.asid);
    kernel->destroyProcess(p);
}

} // namespace
} // namespace mitosim::check
