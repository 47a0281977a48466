/**
 * @file
 * Workload tests: every generator sets up within its footprint budget,
 * steps deterministically, stays inside its VMAs (no segfaults), and
 * exhibits its designed locality class (random vs sequential TLB
 * behaviour). Parameterized over all registered workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"
#include "src/workloads/workload.h"

namespace mitosim::workloads
{
namespace
{

sim::MachineConfig
testMachine()
{
    auto cfg = sim::MachineConfig::tiny();
    cfg.topo.numSockets = 2;
    cfg.topo.coresPerSocket = 2;
    cfg.topo.memPerSocket = 96ull << 20;
    return cfg;
}

WorkloadParams
testParams()
{
    WorkloadParams p;
    p.footprint = 8ull << 20;
    p.seed = 7;
    return p;
}

class WorkloadSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSmoke, SetupAndRunWithinBudget)
{
    sim::Machine machine(testMachine());
    pvops::NativeBackend native(machine.physmem());
    os::Kernel kernel(machine, native);
    os::Process &proc = kernel.createProcess(GetParam(), 0);
    os::ExecContext ctx(kernel, proc);
    ctx.addThread(0);
    ctx.addThread(1);

    auto w = makeWorkload(GetParam(), testParams());
    w->setup(ctx);
    EXPECT_GT(proc.residentPages, 0u);
    // Footprint respected within 30% (structure rounding allowed).
    EXPECT_LE(proc.residentPages * PageSize,
              testParams().footprint * 13 / 10);

    ctx.resetCounters();
    runInterleaved(ctx, *w, 500);
    auto totals = ctx.totals();
    EXPECT_GT(totals.accesses, 500u); // every op touches memory
    EXPECT_GT(totals.cycles, 0u);
    kernel.destroyProcess(proc);
}

TEST_P(WorkloadSmoke, DeterministicAcrossRuns)
{
    auto run_once = [&]() {
        sim::Machine machine(testMachine());
        pvops::NativeBackend native(machine.physmem());
        os::Kernel kernel(machine, native);
        os::Process &proc = kernel.createProcess(GetParam(), 0);
        os::ExecContext ctx(kernel, proc);
        ctx.addThread(0);
        ctx.addThread(1);
        auto w = makeWorkload(GetParam(), testParams());
        w->setup(ctx);
        ctx.resetCounters();
        runInterleaved(ctx, *w, 300);
        Cycles cycles = ctx.runtime();
        kernel.destroyProcess(proc);
        return cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

/** FNV-1a over every field of every op, thread streams in order. */
std::uint64_t
streamHash(const std::vector<std::vector<os::BatchOp>> &streams)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &ops : streams) {
        for (const auto &op : ops) {
            mix(op.va);
            mix(op.cycles);
            mix(op.isWrite);
            mix(op.isCompute);
        }
    }
    return h;
}

/** @p steps ops per thread, generated round-robin @p chunk at a time. */
std::vector<std::vector<os::BatchOp>>
generate(Workload &w, int threads, unsigned steps, unsigned chunk)
{
    std::vector<std::vector<os::BatchOp>> out(
        static_cast<std::size_t>(threads));
    for (unsigned done = 0; done < steps; done += chunk) {
        for (int t = 0; t < threads; ++t)
            w.stepBatch(t, std::min(chunk, steps - done),
                        out[static_cast<std::size_t>(t)]);
    }
    return out;
}

TEST_P(WorkloadSmoke, GeneratorStreamIsPinned)
{
    // Seed-42 fingerprints of the first 64 steps of each of 4 threads.
    // A change here changes every bench that replays the workload.
    static const std::map<std::string, std::uint64_t> Expected = {
        {"gups", 0xdde7940e9b1b9f08ull},
        {"stream", 0xedce34b039ca0425ull},
        {"btree", 0xc0953d4420c0e9ddull},
        {"hashjoin", 0x3a39df179fb0194cull},
        {"memcached", 0x7301229ae0ef40c1ull},
        {"redis", 0xd8ea15fda618e284ull},
        {"xsbench", 0x07e49e831824a9a4ull},
        {"pagerank", 0x29190acc467c5dbdull},
        {"liblinear", 0xf261ed89444670a3ull},
        {"canneal", 0x4cd1b22bd1e8ff25ull},
        {"graph500", 0x4619d3bdaa7c4ebdull},
    };
    constexpr int Threads = 4;
    constexpr unsigned Steps = 64;

    sim::Machine machine(testMachine());
    pvops::NativeBackend native(machine.physmem());
    os::Kernel kernel(machine, native);
    os::Process &proc = kernel.createProcess(GetParam(), 0);
    os::ExecContext ctx(kernel, proc);
    for (int t = 0; t < Threads; ++t)
        ctx.addThread(t / 2);
    WorkloadParams p = testParams();
    p.seed = 42;
    auto w = makeWorkload(GetParam(), p);
    w->setup(ctx);

    // Each chunking replays from its own clone of the post-setup state.
    auto whole = generate(*w->clone(), Threads, Steps, Steps);
    std::uint64_t hash = streamHash(whole);
    for (unsigned chunk : {1u, 7u, 32u}) {
        EXPECT_EQ(streamHash(generate(*w->clone(), Threads, Steps, chunk)),
                  hash)
            << "chunk=" << chunk;
    }
    EXPECT_EQ(hash, Expected.at(GetParam()))
        << std::hex << "0x" << hash;
    kernel.destroyProcess(proc);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmoke,
                         ::testing::ValuesIn(workloadNames()));

TEST(WorkloadFactory, UnknownNameIsFatal)
{
    EXPECT_THROW(makeWorkload("nosuch", WorkloadParams{}), SimError);
}

TEST(WorkloadFactory, NamesRoundTrip)
{
    for (const auto &name : workloadNames()) {
        auto w = makeWorkload(name, WorkloadParams{});
        EXPECT_EQ(w->name(), name);
    }
}

TEST(WorkloadBehaviour, GupsIsTlbHostileAndStreamIsNot)
{
    sim::Machine machine(testMachine());
    pvops::NativeBackend native(machine.physmem());
    os::Kernel kernel(machine, native);

    auto miss_rate = [&](const std::string &name) {
        os::Process &proc = kernel.createProcess(name, 0);
        os::ExecContext ctx(kernel, proc);
        ctx.addThread(0);
        WorkloadParams p = testParams();
        p.footprint = 32ull << 20; // far beyond TLB reach
        auto w = makeWorkload(name, p);
        w->setup(ctx);
        ctx.resetCounters();
        runInterleaved(ctx, *w, 2000);
        auto t = ctx.totals();
        double rate = static_cast<double>(t.tlbMisses) /
                      static_cast<double>(t.accesses);
        kernel.destroyProcess(proc);
        return rate;
    };

    double gups = miss_rate("gups");
    double stream = miss_rate("stream");
    EXPECT_GT(gups, 0.5);   // random 8B updates: nearly every op misses
    EXPECT_LT(stream, 0.05); // sequential sweeps: one miss per page
    EXPECT_GT(gups, 10 * stream);
}

TEST(WorkloadBehaviour, BtreeChasesPointersDeep)
{
    sim::Machine machine(testMachine());
    pvops::NativeBackend native(machine.physmem());
    os::Kernel kernel(machine, native);
    os::Process &proc = kernel.createProcess("btree", 0);
    os::ExecContext ctx(kernel, proc);
    ctx.addThread(0);
    WorkloadParams p = testParams();
    auto w = makeWorkload("btree", p);
    w->setup(ctx);
    ctx.resetCounters();
    runInterleaved(ctx, *w, 100);
    auto t = ctx.totals();
    // Each lookup touches >= 2 accesses per level over multiple levels.
    EXPECT_GE(t.accesses, 100u * 6);
    kernel.destroyProcess(proc);
}

TEST(WorkloadBehaviour, InitModeMainThreadSkewsPlacement)
{
    sim::Machine machine(testMachine());
    pvops::NativeBackend native(machine.physmem());
    os::Kernel kernel(machine, native);
    os::Process &proc = kernel.createProcess("gups", 0);
    os::ExecContext ctx(kernel, proc);
    ctx.addThread(0); // socket 0
    ctx.addThread(1); // socket 1

    WorkloadParams p = testParams();
    p.initMode = InitMode::MainThread;
    p.initModeOverridden = true;
    auto w = makeWorkload("gups", p);
    w->setup(ctx);
    // All data (and PTs) on thread 0's socket.
    auto &pm = machine.physmem();
    EXPECT_GT(pm.stats(0).dataPages, 0u);
    EXPECT_EQ(pm.stats(1).dataPages, 0u);
    kernel.destroyProcess(proc);
}

TEST(WorkloadBehaviour, InitModePartitionedBalancesPlacement)
{
    sim::Machine machine(testMachine());
    pvops::NativeBackend native(machine.physmem());
    os::Kernel kernel(machine, native);
    os::Process &proc = kernel.createProcess("gups", 0);
    os::ExecContext ctx(kernel, proc);
    ctx.addThread(0);
    ctx.addThread(1);

    WorkloadParams p = testParams();
    p.initMode = InitMode::Partitioned;
    p.initModeOverridden = true;
    auto w = makeWorkload("gups", p);
    w->setup(ctx);
    auto &pm = machine.physmem();
    double ratio = static_cast<double>(pm.stats(0).dataPages) /
                   static_cast<double>(pm.stats(1).dataPages);
    EXPECT_NEAR(ratio, 1.0, 0.1);
    kernel.destroyProcess(proc);
}

TEST(WorkloadBehaviour, ThpParamsUse2MPages)
{
    sim::Machine machine(testMachine());
    pvops::NativeBackend native(machine.physmem());
    os::Kernel kernel(machine, native);
    os::Process &proc = kernel.createProcess("gups", 0);
    os::ExecContext ctx(kernel, proc);
    ctx.addThread(0);
    WorkloadParams p = testParams();
    p.thp = true;
    auto w = makeWorkload("gups", p);
    w->setup(ctx);
    EXPECT_GT(machine.physmem().stats(0).dataLargePages, 0u);
    kernel.destroyProcess(proc);
}

} // namespace
} // namespace mitosim::workloads
