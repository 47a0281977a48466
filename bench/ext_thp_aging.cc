/**
 * @file
 * Extension: THP aging and recovery — the *dynamic* continuation of
 * Figure 11.
 *
 * Figure 11 measures the static end state of fragmentation: every 2 MB
 * allocation fails, the workload silently runs on 4 KB pages, and
 * remote page-table walks get devastating. Real Linux fights back with
 * khugepaged (background 4K→2M collapse) and kcompactd (physical
 * compaction that reconstitutes free 2 MB blocks). This bench ages the
 * machine (fragmentation 1.0, so setup degrades to all-4K exactly as
 * in fig11), then lets the daemons run during measurement and tracks
 * the recovery over simulated time:
 *
 *   {native, mitosis} x {daemon off, on}  per workload
 *
 * reporting per-phase 2 MB coverage, per-phase walk cycles, final
 * free-2MB-block capacity per socket, and the lifecycle counters as
 * the report's thp_* metrics.
 *
 * Expected shape: with the daemons on, coverage climbs from ~0 toward
 * full and walk cycles fall back to the unfragmented level (recovering
 * most of fig11's loss) for both backends; in the *residual* 4K window
 * (the early phases, before collapse catches up) Mitosis keeps walks
 * cheap because leaf PTEs are socket-local, while native pays remote
 * walks — the two mechanisms compose instead of competing.
 *
 * Replica-coherence acceptance check: for the mitosis jobs every
 * per-socket replica tree must agree with the primary entry-for-entry
 * after all collapses (verified by vmcheck's coherence sweep,
 * src/check/), and the backend's ring-wide collapse count must equal
 * the OS-side count.
 */

#include "bench/harness.h"

#include <memory>

#include "src/base/logging.h"
#include "src/check/vmcheck.h"
#include "src/driver/bench_main.h"
#include "src/pvops/native_backend.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

const char *const Workloads[] = {"memcached", "xsbench", "gups"};

constexpr std::uint64_t Footprint = 2ull << 30;
constexpr std::uint64_t WarmupOps = 2000;
constexpr std::uint64_t MeasureOps = 6000;
constexpr int Phases = 8;
constexpr int TicksPerPhase = 4;
constexpr std::uint64_t Seed = 42;

struct Config
{
    const char *slug;
    bool mitosis;
    bool daemon;
};

constexpr Config Configs[] = {
    {"native-off", false, false},
    {"native-on", false, true},
    {"mitosis-off", true, false},
    {"mitosis-on", true, true},
};

driver::JobResult
run(const std::string &workload, bool use_mitosis, bool daemon)
{
    PhaseTimer phases;

    // The daemon flags only act through thpTick() during measurement,
    // so the daemon-on and daemon-off jobs of one (workload, backend)
    // pair populate identically. The spec carries everything that ages
    // the machine: fragmentation 1.0 before any allocation (the fig11
    // injector), the THP-eligible 4 KB-degraded setup, splitPartial.
    PopulateSpec spec;
    spec.machine = benchMachine();
    spec.backend = use_mitosis ? snapshot::BackendKind::Mitosis
                               : snapshot::BackendKind::Native;
    spec.kernelCfg.thp.splitPartial = true;
    spec.kernelCfg.thp.khugepaged = daemon;
    spec.kernelCfg.thp.kcompactd = daemon;
    spec.workload = workload;
    spec.params.footprint = Footprint;
    spec.params.seed = Seed;
    spec.params.thp = true; // eligible, but every 2 MB allocation fails
    spec.fragmentation = 1.0;
    spec.fragSeed = Seed ^ 0xf7a6ull;
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);

    auto u = preparePopulated(spec);
    sim::Machine &machine = u->machine;
    os::Kernel &kernel = u->kernel;
    os::Process &proc = *u->proc;
    os::ExecContext &ctx = *u->ctx;
    workloads::Workload &w = *u->workload;
    core::MitosisBackend *mitosis = use_mitosis ? &u->mitosis() : nullptr;

    if (mitosis) {
        mitosis->setReplicationMask(
            proc.roots(), proc.id(),
            SocketMask::all(machine.numSockets()));
        kernel.reloadContexts(proc);
    }
    phases.populateDone();

    workloads::runInterleaved(ctx, w, WarmupOps);
    ctx.resetCounters();

    driver::JobResult res;
    os::thp::ThpManager &thp = kernel.thp();
    res.value("coverage_initial", thp.coverage(proc));

    // Phased measurement: a slice of operations, then one daemon
    // period (kcompactd reconstitutes blocks, khugepaged collapses) —
    // the same explicit-period pattern as the AutoNUMA scan ticks.
    Cycles prev_cycles = 0;
    Cycles prev_walk = 0;
    Cycles first_phase_walk = 0;
    Cycles last_phase_walk = 0;
    for (int phase = 0; phase < Phases; ++phase) {
        workloads::runInterleaved(ctx, w, MeasureOps / Phases);
        for (int t = 0; t < TicksPerPhase; ++t)
            kernel.thpTick();

        sim::PerfCounters totals = ctx.totals();
        Cycles walk = totals.walkCycles - prev_walk;
        prev_walk = totals.walkCycles;
        Cycles cycles = ctx.runtime() - prev_cycles;
        prev_cycles = ctx.runtime();
        if (phase == 0)
            first_phase_walk = walk;
        last_phase_walk = walk;

        std::string suffix = "_p" + std::to_string(phase);
        res.value("coverage" + suffix, thp.coverage(proc));
        res.value("walk_cycles" + suffix, static_cast<double>(walk));
        res.value("phase_cycles" + suffix,
                  static_cast<double>(cycles));
    }
    phases.runDone();
    res.value("coverage_final", thp.coverage(proc));
    res.value("walk_recovery",
              last_phase_walk
                  ? static_cast<double>(first_phase_walk) /
                        static_cast<double>(last_phase_walk)
                  : 1.0);
    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        res.value("free_2m_blocks_socket" + std::to_string(s),
                  static_cast<double>(
                      machine.physmem().freeLargeBlocks(s)));
    }

    driver::RunOutcome out;
    out.runtime = ctx.runtime();
    out.totals = ctx.totals();
    res.outcome = out;

    const os::thp::ThpStats &ts = thp.stats();

    if (mitosis) {
        // Acceptance: every replica table must agree with the primary
        // entry-for-entry after the collapses. vmcheck's coherence
        // sweep (class 1) is strictly stronger than the old leaf-count
        // comparison — it descends every (primary, replica) pair in
        // lockstep and diffs flags and ring membership too. The
        // default fail-fast config fatal()s with full context
        // (process, VA range, socket) on the first divergence.
        check::Checker coherence(kernel, check::CheckConfig{});
        coherence.checkReplicaCoherence();
        // And the backend must have applied exactly one ring-wide
        // collapse/split per OS-side lifecycle event.
        if (mitosis->stats().hugeCollapses != ts.collapses ||
            mitosis->stats().hugeSplits != ts.splits) {
            fatal("backend collapse/split counts diverge from the "
                  "OS-side lifecycle counts");
        }
        analysis::PtAnalyzer analyzer(machine.physmem(),
                                      kernel.ptOps());
        res.value("replica_leaf_ptes",
                  static_cast<double>(
                      analyzer.snapshot(proc.roots()).totalLeafPtes()));
    }

    recordWalkAttribution(res, proc.id(), out.totals);
    u->finalize();
    recordJobStats(kernel, res);
    phases.stamp(res);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "ext_thp_aging";
    spec.title = "Extension: THP aging — khugepaged/kcompactd recover "
                 "2MB coverage under fragmentation, {native, mitosis} "
                 "x {daemon off, on}";
    spec.describe = [](BenchReport &report) {
        describeMachine(report);
        report.config("footprint_bytes",
                      static_cast<double>(Footprint));
        report.config("fragmentation", 1.0);
        report.config("phases", static_cast<double>(Phases));
        report.config("ticks_per_phase",
                      static_cast<double>(TicksPerPhase));
        report.config("measure_ops", static_cast<double>(MeasureOps));
        report.config("seed", static_cast<double>(Seed));
    };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const char *wl : Workloads) {
            std::string name = wl;
            for (const Config &c : Configs) {
                registry.add(name + "/" + c.slug, [name, c] {
                    return run(name, c.mitosis, c.daemon);
                });
            }
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-11s %-12s %9s %9s %9s %10s\n", "workload",
                    "config", "runtime", "cov_final", "walk_rec",
                    "walk_frac");
        std::size_t i = 0;
        for (const char *wl : Workloads) {
            double base = 0;
            std::vector<double> runtimes;
            for (const Config &c : Configs) {
                const driver::JobResult &res = results[i++];
                if (base == 0)
                    base = res.runtime();
                runtimes.push_back(res.runtime());
                std::printf("%-11s %-12s %9.3f %9.3f %9.2f %9.1f%%\n",
                            wl, c.slug, res.runtime() / base,
                            res.valueOf("coverage_final"),
                            res.valueOf("walk_recovery"),
                            100.0 * res.outcome->walkFraction());
                BenchRun &run_rec = recordOutcome(
                    report, std::string(wl) + " " + c.slug, res, base);
                run_rec.tag("workload", wl)
                    .tag("backend", c.mitosis ? "mitosis" : "native")
                    .tag("daemon", c.daemon ? "on" : "off")
                    .metric("coverage_initial",
                            res.valueOf("coverage_initial"))
                    .metric("coverage_final",
                            res.valueOf("coverage_final"))
                    .metric("walk_recovery",
                            res.valueOf("walk_recovery"));
                for (int p = 0; p < Phases; ++p) {
                    std::string suffix = "_p" + std::to_string(p);
                    run_rec.metric("coverage" + suffix,
                                   res.valueOf("coverage" + suffix));
                    run_rec.metric("walk_cycles" + suffix,
                                   res.valueOf("walk_cycles" + suffix));
                }
            }
            // Headline ratios. Job order per workload: native-off,
            // native-on, mitosis-off, mitosis-on.
            const driver::JobResult &nat_on = results[i - 3];
            const driver::JobResult &mit_on = results[i - 1];
            report.speedup(std::string(wl) +
                               " native daemon-on recovery",
                           runtimes[0] / runtimes[1]);
            report.speedup(std::string(wl) +
                               " mitosis daemon-on recovery",
                           runtimes[2] / runtimes[3]);
            report.speedup(
                std::string(wl) +
                    " residual-4k window, native/mitosis walk "
                    "cycles (daemon on, first phase)",
                nat_on.valueOf("walk_cycles_p0") /
                    mit_on.valueOf("walk_cycles_p0"));
            std::printf("  %s: daemon-on coverage %.0f%% -> %.0f%%, "
                        "walk-cycle recovery %.2fx (native)\n",
                        wl,
                        100.0 * nat_on.valueOf("coverage_initial"),
                        100.0 * nat_on.valueOf("coverage_final"),
                        nat_on.valueOf("walk_recovery"));
        }
    };
    return driver::benchMain(argc, argv, spec);
}
