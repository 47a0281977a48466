/**
 * @file
 * Ablation (§6.1 future work, implemented): the counter-driven automatic
 * policy versus static choices. For a TLB-hostile workload (GUPS) and a
 * TLB-friendly one (STREAM), compares always-off, always-on, and the
 * automatic engine. The engine should match always-on for GUPS and
 * always-off for STREAM — one knob, per-process-right answers.
 */

#include "bench/harness.h"

#include "src/core/auto_policy.h"
#include "src/driver/bench_main.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

const std::vector<std::string> &
policyWorkloads()
{
    static const std::vector<std::string> list = {"gups", "canneal",
                                                  "stream", "liblinear"};
    return list;
}

enum class Mode
{
    Off,
    On,
    Auto,
};

constexpr const char *ModeNames[] = {"off", "on", "auto"};

driver::JobResult
run(const std::string &workload, Mode mode)
{
    sim::Machine machine(benchMachine());
    core::MitosisBackend backend(machine.physmem());
    os::Kernel kernel(machine, backend);
    core::AutoPolicyEngine engine(backend);

    os::Process &proc = kernel.createProcess(workload, 0);
    os::ExecContext ctx(kernel, proc);
    for (SocketId s = 0; s < machine.numSockets(); ++s)
        ctx.addThread(s);

    workloads::WorkloadParams params;
    params.footprint = 128ull << 20;
    auto w = workloads::makeWorkload(workload, params);
    w->setup(ctx);

    if (mode == Mode::On) {
        backend.setReplicationMask(
            proc.roots(), proc.id(),
            SocketMask::all(machine.numSockets()));
        kernel.reloadContexts(proc);
    }

    // Warm + policy-sampling phase.
    for (int round = 0; round < 4; ++round) {
        ctx.resetCounters();
        workloads::runInterleaved(ctx, *w, 1500);
        if (mode == Mode::Auto)
            engine.sample(kernel, proc, ctx.totals());
    }

    ctx.resetCounters();
    workloads::runInterleaved(ctx, *w, 6000);
    driver::JobResult result;
    result.value("runtime_cycles", static_cast<double>(ctx.runtime()));
    result.value("replicated", proc.roots().replicated() ? 1.0 : 0.0);
    recordWalkAttribution(result, proc.id(), ctx.totals());
    kernel.finalizeProcess(proc);
    recordJobStats(kernel, result);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "abl_auto_policy";
    spec.title = "Ablation: automatic counter-based policy (§6.1) vs "
                 "static on/off";
    spec.describe = [](BenchReport &report) { describeMachine(report); };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const std::string &name : policyWorkloads()) {
            for (Mode mode : {Mode::Off, Mode::On, Mode::Auto}) {
                registry.add(
                    name + "/" + ModeNames[static_cast<int>(mode)],
                    [name, mode] { return run(name, mode); });
            }
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-10s %12s %12s %12s   %s\n", "workload", "off",
                    "on", "auto", "auto chose");
        std::size_t i = 0;
        for (const std::string &name : policyWorkloads()) {
            const driver::JobResult &off = results[i++];
            const driver::JobResult &on = results[i++];
            const driver::JobResult &automatic = results[i++];
            double b = off.valueOf("runtime_cycles");
            bool replicated = automatic.valueOf("replicated") != 0.0;
            std::printf("%-10s %12.3f %12.3f %12.3f   %s\n",
                        name.c_str(), 1.0,
                        on.valueOf("runtime_cycles") / b,
                        automatic.valueOf("runtime_cycles") / b,
                        replicated ? "replicate" : "leave alone");
            report.addRun(name)
                .tag("workload", name)
                .tag("auto_chose",
                     replicated ? "replicate" : "leave alone")
                .metric("norm_runtime_off", 1.0)
                .metric("norm_runtime_on",
                        on.valueOf("runtime_cycles") / b)
                .metric("norm_runtime_auto",
                        automatic.valueOf("runtime_cycles") / b)
                .metric("runtime_cycles_off", b);
        }
        std::printf("\n(expected: auto tracks the better static choice "
                    "per workload)\n");
    };
    return driver::benchMain(argc, argv, spec);
}
