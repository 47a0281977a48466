/**
 * @file
 * Tests for the counter-driven automatic replication policy (§6.1
 * future work, implemented as an extension): thresholding, hysteresis,
 * small-process and short-run filtering, and end-to-end behaviour on a
 * real TLB-hostile workload.
 */

#include <gtest/gtest.h>

#include "src/core/auto_policy.h"
#include "src/workloads/workload.h"

namespace mitosim::core
{
namespace
{

sim::MachineConfig
policyMachine()
{
    sim::MachineConfig cfg;
    cfg.topo.numSockets = 4;
    cfg.topo.coresPerSocket = 2;
    cfg.topo.memPerSocket = 256ull << 20;
    cfg.hier.l3BytesPerSocket = 64ull << 10;
    return cfg;
}

/** Synthetic counter window with a chosen walk fraction. */
sim::PerfCounters
window(double walk_fraction, std::uint64_t accesses = 100000)
{
    sim::PerfCounters pc;
    pc.accesses = accesses;
    pc.cycles = 1000000;
    pc.walkCycles =
        static_cast<Cycles>(walk_fraction * static_cast<double>(pc.cycles));
    return pc;
}

class AutoPolicyTest : public ::testing::Test
{
  protected:
    AutoPolicyTest()
        : machine(policyMachine()),
          backend(machine.physmem()),
          kernel(machine, backend),
          engine(backend)
    {
    }

    os::Process &
    bigProcess(int sockets)
    {
        os::Process &p = kernel.createProcess("p", 0);
        kernel.mmap(p, 8ull << 20, os::MmapOptions{.populate = true});
        for (SocketId s = 0; s < sockets; ++s)
            EXPECT_GE(kernel.spawnThreadOnSocket(p, s), 0);
        return p;
    }

    sim::Machine machine;
    MitosisBackend backend;
    os::Kernel kernel;
    AutoPolicyEngine engine;
};

TEST_F(AutoPolicyTest, EnablesAfterSustainedHighWalkFraction)
{
    os::Process &p = bigProcess(4);
    EXPECT_EQ(engine.sample(kernel, p, window(0.4)),
              AutoPolicyAction::None); // first sample only builds streak
    EXPECT_EQ(engine.sample(kernel, p, window(0.4)),
              AutoPolicyAction::Enabled);
    EXPECT_TRUE(p.roots().replicated());
    EXPECT_EQ(p.roots().replicaMask.count(), 4);
    // Enabled once: later high samples leave the mask alone.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(engine.sample(kernel, p, window(0.4)),
                  AutoPolicyAction::None);
    EXPECT_EQ(p.roots().replicaMask.count(), 4);
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, ReplicatesOnlyRunningSockets)
{
    os::Process &p = bigProcess(2);
    engine.sample(kernel, p, window(0.4));
    engine.sample(kernel, p, window(0.4));
    EXPECT_TRUE(p.roots().replicated());
    EXPECT_EQ(p.roots().replicaMask.count(), 2);
    EXPECT_TRUE(p.roots().replicaMask.contains(0));
    EXPECT_TRUE(p.roots().replicaMask.contains(1));
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, LowWalkFractionNeverEnables)
{
    os::Process &p = bigProcess(4);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(engine.sample(kernel, p, window(0.05)),
                  AutoPolicyAction::None);
    EXPECT_FALSE(p.roots().replicated());
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, InterruptedStreakDoesNotEnable)
{
    os::Process &p = bigProcess(4);
    engine.sample(kernel, p, window(0.4));
    engine.sample(kernel, p, window(0.01)); // streak broken
    EXPECT_EQ(engine.sample(kernel, p, window(0.4)),
              AutoPolicyAction::None);
    EXPECT_FALSE(p.roots().replicated());
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, HysteresisDisablesOnlyBelowLowerBand)
{
    os::Process &p = bigProcess(4);
    engine.sample(kernel, p, window(0.4));
    engine.sample(kernel, p, window(0.4));
    ASSERT_TRUE(p.roots().replicated());

    // Mid-band: stays replicated.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(engine.sample(kernel, p, window(0.10)),
                  AutoPolicyAction::None);
    EXPECT_TRUE(p.roots().replicated());

    // Below the lower band for two samples: torn down.
    engine.sample(kernel, p, window(0.02));
    EXPECT_EQ(engine.sample(kernel, p, window(0.02)),
              AutoPolicyAction::Disabled);
    EXPECT_FALSE(p.roots().replicated());
    // Disabled once: further low samples have nothing to tear down.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(engine.sample(kernel, p, window(0.02)),
                  AutoPolicyAction::None);
    EXPECT_FALSE(p.roots().replicated());
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, SmallProcessesAreNeverReplicated)
{
    os::Process &p = kernel.createProcess("tiny", 0);
    kernel.mmap(p, 64 * PageSize, os::MmapOptions{.populate = true});
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 0), 0);
    ASSERT_GE(kernel.spawnThreadOnSocket(p, 1), 0);
    // A window far above the enable band, skipped every time.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(engine.sample(kernel, p, window(0.9)),
                  AutoPolicyAction::None);
    EXPECT_FALSE(p.roots().replicated());
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, QuietWindowsAreIgnored)
{
    os::Process &p = bigProcess(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(engine.sample(kernel, p, window(0.9, /*accesses=*/10)),
                  AutoPolicyAction::None);
    EXPECT_FALSE(p.roots().replicated());
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, SingleSocketProcessNotReplicated)
{
    os::Process &p = bigProcess(1);
    engine.sample(kernel, p, window(0.5));
    EXPECT_EQ(engine.sample(kernel, p, window(0.5)),
              AutoPolicyAction::None);
    EXPECT_FALSE(p.roots().replicated());
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, EndToEndEnablesForTlbHostileWorkload)
{
    // Real counters, not synthetic: GUPS across all sockets trips the
    // engine; replication then removes remote walker traffic.
    os::Process &p = kernel.createProcess("gups", 0);
    os::ExecContext ctx(kernel, p);
    for (SocketId s = 0; s < 4; ++s)
        ctx.addThread(s);
    workloads::WorkloadParams params;
    params.footprint = 64ull << 20;
    auto w = workloads::makeWorkload("gups", params);
    w->setup(ctx);

    AutoPolicyAction last = AutoPolicyAction::None;
    for (int round = 0; round < 3 && last != AutoPolicyAction::Enabled;
         ++round) {
        ctx.resetCounters();
        workloads::runInterleaved(ctx, *w, 3000);
        last = engine.sample(kernel, p, ctx.totals());
    }
    EXPECT_EQ(last, AutoPolicyAction::Enabled);
    EXPECT_TRUE(p.roots().replicated());

    ctx.resetCounters();
    workloads::runInterleaved(ctx, *w, 3000);
    EXPECT_LT(ctx.totals().remotePtFraction(), 0.02);
    kernel.destroyProcess(p);
}

TEST_F(AutoPolicyTest, EndToEndLeavesStreamAlone)
{
    os::Process &p = kernel.createProcess("stream", 0);
    os::ExecContext ctx(kernel, p);
    for (SocketId s = 0; s < 4; ++s)
        ctx.addThread(s);
    workloads::WorkloadParams params;
    params.footprint = 64ull << 20;
    auto w = workloads::makeWorkload("stream", params);
    w->setup(ctx);

    for (int round = 0; round < 4; ++round) {
        ctx.resetCounters();
        workloads::runInterleaved(ctx, *w, 3000);
        engine.sample(kernel, p, ctx.totals());
    }
    EXPECT_FALSE(p.roots().replicated());
    kernel.destroyProcess(p);
}

} // namespace
} // namespace mitosim::core
