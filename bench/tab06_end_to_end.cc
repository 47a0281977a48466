/**
 * @file
 * Table 6: end-to-end overhead of merely *running under* Mitosis with
 * replication disabled (LP-LD, everything local, THP off), including the
 * allocation/initialization phase — the cost of the PV-Ops indirection.
 *
 * Expected shape (paper): GUPS 0.46%, Redis 0.37% — well under 1%.
 */

#include "bench/harness.h"

#include "src/driver/bench_main.h"
#include "src/pvops/native_backend.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

const std::vector<std::string> &
endToEndWorkloads()
{
    static const std::vector<std::string> list = {"gups", "redis"};
    return list;
}

driver::JobResult
endToEnd(bool mitosis_backend, const std::string &workload)
{
    sim::Machine machine(benchMachine());
    pvops::NativeBackend native(machine.physmem());
    core::MitosisBackend mitosis(machine.physmem());
    os::Kernel kernel(machine,
                      mitosis_backend
                          ? static_cast<pvops::PvOps &>(mitosis)
                          : static_cast<pvops::PvOps &>(native));
    os::Process &proc = kernel.createProcess(workload, 0);
    kernel.setDataPolicy(proc, os::DataPolicy::Fixed, 0);
    kernel.setPtPlacement(proc, pt::PtPlacement::Fixed, 0);

    os::ExecContext ctx(kernel, proc);
    ctx.addThread(0);

    workloads::WorkloadParams params;
    params.footprint = 128ull << 20;
    params.seed = 21;
    auto w = workloads::makeWorkload(workload, params);
    // Counters are NOT reset: setup (allocation + population) counts,
    // as in the paper's Table 6 methodology.
    w->setup(ctx);
    workloads::runInterleaved(ctx, *w, 20000);
    driver::JobResult result;
    result.value("runtime_cycles", static_cast<double>(ctx.runtime()));
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
    spec.name = "tab06_end_to_end";
    spec.title = "Table 6: end-to-end runtime incl. initialization, "
                 "LP-LD, Mitosis off vs on (replication disabled)";
    spec.describe = [](BenchReport &report) {
        describeMachine(report);
        report.config("replication", "disabled");
    };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const std::string &name : endToEndWorkloads()) {
            for (bool on : {false, true}) {
                registry.add(name + (on ? "/on" : "/off"), [name, on] {
                    return endToEnd(on, name);
                });
            }
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-10s %16s %16s %10s\n", "Workload", "Mitosis Off",
                    "Mitosis On", "Overhead");
        std::size_t i = 0;
        for (const std::string &name : endToEndWorkloads()) {
            double off = results[i++].valueOf("runtime_cycles");
            double on = results[i++].valueOf("runtime_cycles");
            double overhead = (on - off) / off;
            std::printf("%-10s %16.0f %16.0f %9.2f%%\n", name.c_str(),
                        off, on, 100.0 * overhead);
            report.addRun(name)
                .tag("workload", name)
                .metric("runtime_cycles_off", off)
                .metric("runtime_cycles_on", on)
                .metric("overhead_fraction", overhead);
        }
        std::printf(
            "\n(paper: GUPS 0.46%%, Redis 0.37%% — both < 0.5%%)\n");
    };
    return driver::benchMain(argc, argv, spec);
}
