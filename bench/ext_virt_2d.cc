/**
 * @file
 * Extension (§7.4): Mitosis for virtualized, nested-paging systems.
 *
 * A VM with vNUMA-pinned memory runs a GUPS-style guest workload with
 * one vCPU per virtual socket. The guest's memory was initialized from
 * vsocket 0 (first-touch skew), so both the guest page-table (gPT) and
 * the data sit behind socket 0 in *both* translation dimensions. The
 * four configurations replicate the gPT (guest-level Mitosis) and the
 * nPT (host-level Mitosis) independently, realizing the paper's claim
 * that the two levels can be replicated independently once the NUMA
 * architecture is exposed to the guest.
 *
 * Expected shape: each dimension removes part of the remote walker
 * traffic; only gPT+nPT replication makes 2D walks fully local.
 */

#include "bench/harness.h"

#include "src/driver/bench_main.h"
#include "src/virt/nested_walker.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

struct Config
{
    const char *name;
    const char *slug; //!< job-name fragment
    bool gpt;
    bool npt;
};

constexpr Config Configs[] = {
    {"none", "none", false, false},
    {"gPT only", "gpt", true, false},
    {"nPT only", "npt", false, true},
    {"gPT+nPT", "gpt+npt", true, true},
};

driver::JobResult
run(bool gpt_replicated, bool npt_replicated)
{
    PhaseTimer phases;
    sim::Machine machine(benchMachine());
    core::MitosisBackend backend(machine.physmem());
    os::Kernel kernel(machine, backend);

    virt::VmConfig vm_cfg;
    vm_cfg.guestMemPerVSocket = 64ull << 20;
    virt::VirtualMachine vm(kernel, vm_cfg);
    virt::GuestAddressSpace gspace(vm);

    // Guest boot: one "main thread" on vsocket 0 faults in the whole
    // working set — first-touch skew, as in Graph500/XSBench (§3.1).
    const std::uint64_t working_set = 48ull << 20;
    for (virt::GuestPa gva = 0; gva < working_set; gva += PageSize)
        gspace.handleGuestFault(gva, 0);

    if (gpt_replicated)
        gspace.setReplicationMask(SocketMask::all(vm.numVSockets()));
    if (npt_replicated) {
        backend.setReplicationMask(
            vm.process().roots(), vm.process().id(),
            SocketMask::all(machine.numSockets()));
    }

    // One vCPU per virtual socket, random guest accesses.
    std::vector<std::unique_ptr<virt::VCpu>> vcpus;
    for (int v = 0; v < vm.numVSockets(); ++v) {
        vcpus.push_back(std::make_unique<virt::VCpu>(
            vm, gspace, v,
            machine.topology().firstCoreOf(vm.hostSocketOf(v))));
    }

    phases.populateDone();

    std::uint64_t pages = working_set / PageSize;
    auto one_round = [&](std::uint64_t ops, std::uint64_t seed) {
        std::vector<Rng> rngs;
        for (std::size_t v = 0; v < vcpus.size(); ++v)
            rngs.emplace_back(seed + v);
        for (std::uint64_t i = 0; i < ops; ++i) {
            for (std::size_t v = 0; v < vcpus.size(); ++v) {
                virt::GuestPa gva = rngs[v].below(pages) * PageSize +
                              rngs[v].below(PageSize / 8) * 8;
                vcpus[v]->access(gva, (i & 3) == 0);
            }
        }
    };

    one_round(2000, 17); // warm
    for (auto &v : vcpus)
        v->resetCounters();
    one_round(6000, 18);
    phases.runDone();

    driver::RunOutcome out;
    for (auto &v : vcpus) {
        out.totals.add(v->counters());
        out.runtime = std::max(out.runtime, v->counters().cycles);
    }
    driver::JobResult res = driver::JobResult::of(out);
    phases.stamp(res);
    recordWalkAttribution(res, vm.process().id(), out.totals);
    recordJobStats(kernel, res);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "ext_virt_2d";
    spec.title = "Extension (§7.4): 2D page-table replication in a VM "
                 "(normalized to no replication)";
    spec.describe = [](BenchReport &report) { describeMachine(report); };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const Config &c : Configs) {
            registry.add(c.slug,
                         [c] { return run(c.gpt, c.npt); });
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        double base = 0;
        std::printf("%-10s %12s %12s %12s\n", "config", "runtime",
                    "walk_frac", "remote_pt");
        std::size_t i = 0;
        for (const Config &c : Configs) {
            const driver::JobResult &res = results[i++];
            if (base == 0)
                base = res.runtime();
            std::printf("%-10s %12.3f %11.0f%% %11.0f%%\n", c.name,
                        res.runtime() / base,
                        100.0 * res.outcome->walkFraction(),
                        100.0 * res.outcome->remotePtFraction());
            report.addRun(c.name)
                .tag("gpt_replicated", c.gpt ? "yes" : "no")
                .tag("npt_replicated", c.npt ? "yes" : "no")
                .metric("runtime_cycles", res.runtime())
                .metric("norm_runtime", res.runtime() / base)
                .metric("walk_fraction", res.outcome->walkFraction())
                .metric("remote_pt_fraction",
                        res.outcome->remotePtFraction());
        }
        std::printf("\n(expected: walk traffic is remote in both "
                    "dimensions without replication; gPT and nPT "
                    "replication each remove part; together they "
                    "localize 2D walks fully)\n");
    };
    return driver::benchMain(argc, argv, spec);
}
