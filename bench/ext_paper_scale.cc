/**
 * @file
 * Extension: paper-scale footprints — the multi-socket scenario at the
 * testbed's real memory scale instead of the harness's scaled-down
 * machine.
 *
 * The paper's experiments run on a 4-socket, 512 GiB machine with
 * workloads sized far beyond any cache (§8.1). The regular benches
 * reproduce the *shapes* on a 24 GiB simulated machine with caches
 * scaled to preserve the leaf-PTE : L3 ratio; this bench instead
 * simulates the full-size machine (4 x 128 GiB) and runs 64 GiB THP
 * footprints ({F, F+M} per workload), demonstrating that the simulator
 * reaches paper-scale: page metadata is chunked and materialized on
 * touch, data frames are unbacked (placement only), and page-table
 * frames are the only host-backed state — so a 512 GiB machine costs
 * host memory proportional to the *touched* footprint.
 *
 * Reported per job besides the usual counters: host wall-clock phases
 * and the process's peak RSS, the honest footprint-to-host-cost story
 * for EXPERIMENTS.md.
 */

#include "bench/harness.h"

#include <sys/resource.h>

#include "src/driver/bench_main.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

const char *const Workloads[] = {"gups", "memcached"};

constexpr std::uint64_t Footprint = 64ull << 30;
constexpr std::uint64_t WarmupOps = 2000;
constexpr std::uint64_t MeasureOps = 20000;
constexpr std::uint64_t Seed = 42;

sim::MachineConfig
paperMachine()
{
    sim::MachineConfig cfg;
    cfg.topo.numSockets = 4;
    cfg.topo.coresPerSocket = 2;
    cfg.topo.memPerSocket = 128ull << 30;
    // Unscaled caches: at a 64 GiB footprint even 2 MB leaf PDEs
    // overflow the default 1 MB L3, so walk locality matters without
    // any ratio engineering.
    cfg.tlb.l2Holds2M = false;
    return cfg;
}

double
peakRssMib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

driver::JobResult
run(const std::string &workload, bool replicate)
{
    PhaseTimer phases;

    PopulateSpec spec;
    spec.machine = paperMachine();
    spec.backend = snapshot::BackendKind::Mitosis;
    spec.workload = workload;
    spec.params.footprint = Footprint;
    spec.params.seed = Seed;
    spec.params.thp = true;
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);

    // F and F+M differ only post-populate (the replication mask).
    auto u = preparePopulated(spec);
    if (replicate) {
        u->mitosis().setReplicationMask(
            u->proc->roots(), u->proc->id(),
            SocketMask::all(u->machine.numSockets()));
        u->kernel.reloadContexts(*u->proc);
    }
    phases.populateDone();

    workloads::runInterleaved(*u->ctx, *u->workload, WarmupOps);
    u->ctx->resetCounters();
    workloads::runInterleaved(*u->ctx, *u->workload, MeasureOps);
    phases.runDone();

    driver::JobResult res;
    driver::RunOutcome out;
    out.runtime = u->ctx->runtime();
    out.totals = u->ctx->totals();
    res.outcome = out;
    res.value("peak_rss_mib", peakRssMib());
    std::uint64_t pt_pages = 0;
    for (SocketId s = 0; s < u->machine.numSockets(); ++s)
        pt_pages += u->machine.physmem().stats(s).ptPages;
    res.value("pt_pages", static_cast<double>(pt_pages));

    recordWalkAttribution(res, u->proc->id(), out.totals);
    u->finalize();
    recordJobStats(u->kernel, res);
    phases.stamp(res);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "ext_paper_scale";
    spec.title = "Extension: paper-scale footprints — 64 GiB THP "
                 "workloads on a simulated 4x128 GiB machine, F vs F+M";
    spec.describe = [](BenchReport &report) {
        sim::MachineConfig cfg = paperMachine();
        report.config("sockets",
                      static_cast<double>(cfg.topo.numSockets));
        report.config("mem_per_socket_bytes",
                      static_cast<double>(cfg.topo.memPerSocket));
        report.config("footprint_bytes",
                      static_cast<double>(Footprint));
        report.config("measure_ops", static_cast<double>(MeasureOps));
        report.config("seed", static_cast<double>(Seed));
    };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const char *wl : Workloads) {
            std::string name = wl;
            registry.add(name + "/F", [name] { return run(name, false); });
            registry.add(name + "/F+M", [name] { return run(name, true); });
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-11s %-5s %9s %9s %10s %10s %10s\n", "workload",
                    "cfg", "runtime", "walk_frac", "remote_pt",
                    "pt_pages", "rss_mib");
        std::size_t i = 0;
        for (const char *wl : Workloads) {
            double base = 0;
            for (const char *cfg : {"F", "F+M"}) {
                const driver::JobResult &res = results[i++];
                if (base == 0)
                    base = res.runtime();
                std::printf("%-11s %-5s %9.3f %8.1f%% %9.1f%% %10.0f "
                            "%10.0f\n",
                            wl, cfg, res.runtime() / base,
                            100.0 * res.outcome->walkFraction(),
                            100.0 * res.outcome->remotePtFraction(),
                            res.valueOf("pt_pages"),
                            res.valueOf("peak_rss_mib"));
                BenchRun &run_rec = recordOutcome(
                    report, std::string(wl) + " " + cfg, res, base);
                run_rec.tag("workload", wl)
                    .tag("config", cfg)
                    .metric("pt_pages", res.valueOf("pt_pages"));
                report.wallMs(std::string(wl) + " " + cfg +
                                  " peak_rss_mib",
                              res.valueOf("peak_rss_mib"));
            }
            const driver::JobResult &f = results[i - 2];
            const driver::JobResult &fm = results[i - 1];
            report.speedup(std::string(wl) + " F/F+M",
                           f.runtime() / fm.runtime());
        }
    };
    return driver::benchMain(argc, argv, spec);
}
