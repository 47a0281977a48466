/**
 * @file
 * Tests for the time-sharing scheduler: run queues and oversubscription,
 * context-switch costing, PCID retention vs flush-all switching, slice
 * expiry and preemption counters, thread migration, ASID recycling, and
 * the §5.3 schedule-driven replica path of the Mitosis backend.
 */

#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/core/mitosis.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/pvops/costs.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::os
{
namespace
{

KernelConfig
timeSharedConfig(bool pcid)
{
    KernelConfig cfg;
    cfg.sched.timeShared = true;
    cfg.sched.pcid = pcid;
    return cfg;
}

/**
 * After a kernel's first process (ASID 1), create and destroy one
 * process on each of ASIDs 2 .. MaxAsids - 1, so the next process
 * created wraps back onto ASID 1 with a bumped generation.
 */
void
wrapAsidSpace(Kernel &kernel)
{
    for (int i = 0; i < Scheduler::MaxAsids - 2; ++i)
        kernel.destroyProcess(kernel.createProcess("filler", 0));
}

/** A counter of @p kernel's machine registry (each test's is fresh). */
std::uint64_t
schedCounter(Kernel &kernel, const char *name)
{
    return kernel.machine().metrics().counter(name).value;
}

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : machine(sim::MachineConfig::tiny()), native(machine.physmem())
    {
    }

    sim::Machine machine;
    pvops::NativeBackend native;
};

TEST_F(SchedulerTest, OversubscriptionEnqueuesInsteadOfFailing)
{
    Kernel kernel(machine, native, timeSharedConfig(true));
    Process &p = kernel.createProcess("many", 0);
    // Socket 0 has two cores; six threads spread over its queues.
    for (int i = 0; i < 6; ++i)
        EXPECT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    EXPECT_EQ(p.threads().size(), 6u);
    EXPECT_EQ(kernel.scheduler().assignedThreads(0), 3);
    EXPECT_EQ(kernel.scheduler().assignedThreads(1), 3);
    // Nothing dispatched yet: no CR3 loaded anywhere.
    EXPECT_EQ(kernel.processOnCore(0), nullptr);
    EXPECT_FALSE(machine.core(0).hasContext());
    kernel.destroyProcess(p);
}

TEST_F(SchedulerTest, DispatchSwitchesResidencyAndChargesCosts)
{
    Kernel kernel(machine, native, timeSharedConfig(true));
    Process &a = kernel.createProcess("a", 0);
    Process &b = kernel.createProcess("b", 0);
    auto ra = kernel.mmap(a, 4 * PageSize, MmapOptions{.populate = true});
    auto rb = kernel.mmap(b, 4 * PageSize, MmapOptions{.populate = true});

    // Both tenants share core 0.
    ExecContext ctx_a(kernel, a);
    ExecContext ctx_b(kernel, b);
    ctx_a.addThreadOnCore(0);
    ctx_b.addThreadOnCore(0);

    ctx_a.access(0, ra.start, false);
    EXPECT_EQ(kernel.processOnCore(0), &a);
    EXPECT_EQ(machine.core(0).asid(), a.asid);
    Cycles a_cycles = ctx_a.threadCounters(0).cycles;
    EXPECT_GT(a_cycles, pvops::ContextSwitchCost); // switch-in charged

    ctx_b.access(0, rb.start, false);
    EXPECT_EQ(kernel.processOnCore(0), &b);
    EXPECT_EQ(machine.core(0).cr3(), b.roots().primaryRoot);
    EXPECT_EQ(ctx_b.threadCounters(0).contextSwitches, 1u);

    // A resident thread pays no switch cost for its next step.
    Cycles b_before = ctx_b.threadCounters(0).cycles;
    ctx_b.access(0, rb.start, false);
    EXPECT_EQ(ctx_b.threadCounters(0).contextSwitches, 1u);
    EXPECT_LT(ctx_b.threadCounters(0).cycles - b_before,
              pvops::ContextSwitchCost);

    EXPECT_EQ(schedCounter(kernel, "sched_context_switches"), 2u);
    kernel.destroyProcess(a);
    kernel.destroyProcess(b);
}

/** Two tenants ping-ponging on one core: PCID keeps each other's TLB
 *  entries alive across switches; PCID-off flushes them every time. */
TEST_F(SchedulerTest, PcidPreservesTranslationsAcrossSwitches)
{
    for (bool pcid : {true, false}) {
        sim::Machine m(sim::MachineConfig::tiny());
        pvops::NativeBackend backend(m.physmem());
        Kernel kernel(m, backend, timeSharedConfig(pcid));
        Process &a = kernel.createProcess("a", 0);
        Process &b = kernel.createProcess("b", 0);
        auto ra = kernel.mmap(a, PageSize, MmapOptions{.populate = true});
        auto rb = kernel.mmap(b, PageSize, MmapOptions{.populate = true});
        ExecContext ctx_a(kernel, a);
        ExecContext ctx_b(kernel, b);
        ctx_a.addThreadOnCore(0);
        ctx_b.addThreadOnCore(0);

        // Warm A's entry, switch to B, switch back, touch again.
        ctx_a.access(0, ra.start, false);
        ctx_b.access(0, rb.start, false);
        ctx_a.access(0, ra.start, false);

        const auto &pc = ctx_a.threadCounters(0);
        if (pcid) {
            // Second touch hits the tagged survivor: one miss total.
            EXPECT_EQ(pc.tlbMisses, 1u) << "pcid=" << pcid;
        } else {
            // Flush-all on every switch: both touches walked.
            EXPECT_EQ(pc.tlbMisses, 2u) << "pcid=" << pcid;
        }
        kernel.destroyProcess(a);
        kernel.destroyProcess(b);
    }
}

TEST_F(SchedulerTest, SliceExpiryCountsPreemptions)
{
    Kernel kernel(machine, native, timeSharedConfig(true));
    Process &a = kernel.createProcess("a", 0);
    Process &b = kernel.createProcess("b", 0);
    auto ra = kernel.mmap(a, PageSize, MmapOptions{.populate = true});
    auto rb = kernel.mmap(b, PageSize, MmapOptions{.populate = true});
    ExecContext ctx_a(kernel, a);
    ExecContext ctx_b(kernel, b);
    ctx_a.addThreadOnCore(0);
    ctx_b.addThreadOnCore(0);

    ctx_a.access(0, ra.start, false);         // A in, slice running
    ctx_b.access(0, rb.start, false);         // B switches in: no preemption
    EXPECT_EQ(schedCounter(kernel, "sched_preemptions"), 0u);
    ctx_b.compute(0, Scheduler::Timeslice);   // B's slice expires
    ctx_a.access(0, ra.start, false);         // A preempts B
    ctx_a.compute(0, Scheduler::Timeslice);   // A's slice expires
    ctx_b.access(0, rb.start, false);         // B preempts A
    EXPECT_EQ(schedCounter(kernel, "sched_preemptions"), 2u);

    kernel.destroyProcess(a);
    kernel.destroyProcess(b);
}

TEST_F(SchedulerTest, MigrateReassignsQueuesAndCounts)
{
    Kernel kernel(machine, native, timeSharedConfig(true));
    Process &p = kernel.createProcess("mover", 0);
    kernel.mmap(p, 4 * PageSize, MmapOptions{.populate = true});
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    EXPECT_TRUE(kernel.migrateProcess(p, 1, /*migrate_data=*/false));
    for (const auto &t : p.threads())
        EXPECT_EQ(machine.topology().socketOfCore(t.core), 1);
    EXPECT_EQ(schedCounter(kernel, "sched_migrations"), 2u);
    EXPECT_EQ(kernel.homeSocket(p), 1);
    kernel.destroyProcess(p);
}

TEST_F(SchedulerTest, DestroyedTenantLeavesNoResidue)
{
    Kernel kernel(machine, native, timeSharedConfig(true));
    Process &a = kernel.createProcess("a", 0);
    auto ra = kernel.mmap(a, PageSize, MmapOptions{.populate = true});
    ExecContext ctx_a(kernel, a);
    ctx_a.addThreadOnCore(0);
    ctx_a.access(0, ra.start, false);
    EXPECT_TRUE(machine.core(0).hasContext());
    kernel.destroyProcess(a);
    // Resident core parked; the dead root is unreachable.
    EXPECT_FALSE(machine.core(0).hasContext());
    EXPECT_EQ(kernel.processOnCore(0), nullptr);
}

TEST_F(SchedulerTest, RecycledAsidGetsSelectiveFlush)
{
    Kernel kernel(machine, native, timeSharedConfig(true));

    Process &a = kernel.createProcess("a", 0);
    auto ra = kernel.mmap(a, PageSize, MmapOptions{.populate = true});
    ExecContext ctx_a(kernel, a);
    ctx_a.addThreadOnCore(0);
    ctx_a.access(0, ra.start, false);
    Asid recycled = a.asid;
    kernel.destroyProcess(a);
    wrapAsidSpace(kernel);

    Process &b = kernel.createProcess("b", 0);
    EXPECT_EQ(b.asid, recycled);
    auto rb = kernel.mmap(b, PageSize, MmapOptions{.populate = true});
    ExecContext ctx_b(kernel, b);
    ctx_b.addThreadOnCore(0);
    ctx_b.access(0, rb.start, false);
    // B shares A's ASID: its first dispatch selectively flushed, and
    // its access walked B's own tree (no stale hit).
    EXPECT_EQ(schedCounter(kernel, "sched_asid_recycle_flushes"), 1u);
    EXPECT_EQ(ctx_b.threadCounters(0).tlbMisses, 1u);
    kernel.destroyProcess(b);
}

TEST_F(SchedulerTest, SameProcessThreadSwitchKeepsCr3AndTlb)
{
    // Linux's prev->mm == next->mm fast path: two threads of one
    // process time-sharing a core never reload CR3, so even with PCID
    // off nothing flushes and the shared TLB entry stays hot.
    Kernel kernel(machine, native, timeSharedConfig(/*pcid=*/false));
    Process &p = kernel.createProcess("mt", 0);
    auto r = kernel.mmap(p, PageSize, MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    ctx.addThreadOnCore(0);
    ctx.addThreadOnCore(0);

    ctx.access(0, r.start, false); // t0 walks and installs
    ctx.access(1, r.start, false); // t1 switches in but keeps the TLB
    EXPECT_EQ(ctx.threadCounters(1).contextSwitches, 1u);
    EXPECT_EQ(ctx.threadCounters(1).tlbMisses, 0u);
    kernel.destroyProcess(p);
}

TEST_F(SchedulerTest, DataMigrationShootsDownStaleTranslations)
{
    // migrate_data rewrites PTEs to fresh frames and frees the old
    // ones; with PCID preserving translations across CR3 loads, the
    // old VA->PFN entries must be shot down or the tenant keeps
    // "accessing" freed remote frames.
    Kernel kernel(machine, native, timeSharedConfig(true));
    Process &p = kernel.createProcess("t", 0);
    kernel.setDataPolicy(p, DataPolicy::Fixed, 0);
    auto r = kernel.mmap(p, PageSize, MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    ctx.addThreadOnCore(2); // socket 1: already on the migration target
    ctx.access(0, r.start, false); // TLB caches the socket-0 frame
    EXPECT_EQ(ctx.threadCounters(0).tlbMisses, 1u);

    ASSERT_TRUE(kernel.migrateProcess(p, 1, /*migrate_data=*/true));
    auto leaf = kernel.ptOps().walk(p.roots(), r.start);
    EXPECT_EQ(machine.physmem().socketOf(leaf.leaf.pfn()), 1);

    // The stale entry is gone: the next access re-walks to the new
    // frame instead of hitting the freed one.
    ctx.access(0, r.start, false);
    EXPECT_EQ(ctx.threadCounters(0).tlbMisses, 2u);
    kernel.destroyProcess(p);
}

TEST_F(SchedulerTest, LiveAsidAliasingForcesFlushOnHandover)
{
    // A stays alive while the ASID space wraps, so A and B are two
    // *live* processes on ASID 1 with different generations. Every
    // handover must selectively flush, so neither tenant can ever hit
    // the other's identically-tagged entries.
    Kernel kernel(machine, native, timeSharedConfig(true));

    Process &a = kernel.createProcess("a", 0);
    wrapAsidSpace(kernel);
    Process &b = kernel.createProcess("b", 0);
    EXPECT_EQ(a.asid, b.asid);
    EXPECT_NE(a.asidGeneration, b.asidGeneration);
    auto ra = kernel.mmap(a, PageSize, MmapOptions{.populate = true});
    auto rb = kernel.mmap(b, PageSize, MmapOptions{.populate = true});
    ExecContext ctx_a(kernel, a);
    ExecContext ctx_b(kernel, b);
    ctx_a.addThreadOnCore(0);
    ctx_b.addThreadOnCore(0);

    ctx_a.access(0, ra.start, false);
    ctx_b.access(0, rb.start, false); // must not hit A's asid-1 entries
    ctx_a.access(0, ra.start, false); // and A's survivor must be gone
    EXPECT_EQ(ctx_b.threadCounters(0).tlbMisses, 1u);
    EXPECT_EQ(ctx_a.threadCounters(0).tlbMisses, 2u);
    EXPECT_GE(schedCounter(kernel, "sched_asid_recycle_flushes"), 2u);
    kernel.destroyProcess(a);
    kernel.destroyProcess(b);
}

TEST_F(SchedulerTest, MigrateParksTheDescheduledCore)
{
    // A resident thread that migrates away must not leave its CR3
    // loaded behind: destroy (or Mitosis's §5.5 source-replica free)
    // would turn the old core into a walkable pointer at freed frames.
    Kernel kernel(machine, native, timeSharedConfig(true));
    Process &p = kernel.createProcess("mover", 0);
    auto r = kernel.mmap(p, PageSize, MmapOptions{.populate = true});
    ExecContext ctx(kernel, p);
    ctx.addThreadOnCore(0);
    ctx.access(0, r.start, false);
    EXPECT_TRUE(machine.core(0).hasContext());

    ASSERT_TRUE(kernel.migrateProcess(p, 1, /*migrate_data=*/false));
    EXPECT_FALSE(machine.core(0).hasContext());
    kernel.destroyProcess(p);
    for (CoreId c = 0; c < machine.numCores(); ++c)
        EXPECT_FALSE(machine.core(c).hasContext());
}

/** §5.3: the first timeslice on a new socket builds the local replica. */
TEST_F(SchedulerTest, ScheduleDrivenReplicaOnFirstTimeslice)
{
    core::MitosisBackend mitosis(
        machine.physmem(),
        core::MitosisConfig{.policy = core::SystemPolicy::AllProcesses});
    Kernel kernel(machine, mitosis, timeSharedConfig(true));

    Process &p = kernel.createProcess("tenant", 0);
    auto r = kernel.mmap(p, 8 * PageSize, MmapOptions{.populate = true});
    EXPECT_FALSE(p.roots().replicated()); // lazy: nothing until scheduled

    ExecContext ctx(kernel, p);
    ctx.addThread(1); // consolidation landed it on the remote socket
    ctx.access(0, r.start, false);

    // First dispatch on socket 1 replicated the tree there; the core
    // walks the local replica, not the remote primary.
    EXPECT_TRUE(p.roots().replicaMask.contains(1));
    EXPECT_EQ(mitosis.stats().scheduleReplications, 1u);
    CoreId core = p.threads()[0].core;
    EXPECT_EQ(machine.core(core).cr3(), p.roots().rootFor(1));
    EXPECT_NE(machine.core(core).cr3(), p.roots().primaryRoot);

    // Re-dispatching there does not replicate again.
    ctx.access(0, r.start + PageSize, false);
    EXPECT_EQ(mitosis.stats().scheduleReplications, 1u);
    kernel.destroyProcess(p);
}

/**
 * The same scenario under the default PerProcess policy: an opted-in
 * process keeps the mask it set, wherever it is scheduled.
 */
TEST_F(SchedulerTest, PerProcessMaskIgnoresTheSchedule)
{
    core::MitosisBackend mitosis(machine.physmem());
    Kernel kernel(machine, mitosis, timeSharedConfig(true));

    Process &p = kernel.createProcess("tenant", 0);
    auto r = kernel.mmap(p, 8 * PageSize, MmapOptions{.populate = true});
    SocketMask home;
    home.set(0);
    ASSERT_TRUE(mitosis.setReplicationMask(p.roots(), p.id(), home));

    ExecContext ctx(kernel, p);
    ctx.addThread(1);
    ctx.access(0, r.start, false);

    EXPECT_EQ(p.roots().replicaMask, home);
    EXPECT_EQ(mitosis.stats().scheduleReplications, 0u);
    kernel.destroyProcess(p);
}

/** Pinned default: the scheduler knob off reproduces seed semantics. */
TEST_F(SchedulerTest, PinnedModeStillPinsAndLoadsEagerly)
{
    Kernel kernel(machine, native); // default KernelConfig
    EXPECT_FALSE(kernel.scheduler().timeShared());
    Process &p = kernel.createProcess("pinned", 0);
    kernel.spawnThread(p, 0);
    // CR3 loads at spawn, not at first access.
    EXPECT_EQ(machine.core(0).cr3(), p.roots().primaryRoot);
    EXPECT_EQ(kernel.processOnCore(0), &p);
    // And the core is owned: a second thread there panics.
    Process &q = kernel.createProcess("other", 0);
    EXPECT_THROW(kernel.spawnThread(q, 0), SimError);
    kernel.destroyProcess(p);
    kernel.destroyProcess(q);
}

} // namespace
} // namespace mitosim::os
