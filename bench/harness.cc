#include "harness.h"

#include <cstdarg>

#include "src/base/logging.h"
#include "src/check/vmcheck.h"

namespace mitosim::bench
{

sim::MachineConfig
benchMachine()
{
    sim::MachineConfig cfg;
    cfg.topo.numSockets = 4;
    cfg.topo.coresPerSocket = 2;
    cfg.topo.memPerSocket = 6ull << 30;
    // Keep the leaf-PTE : L3 ratio of the paper's machine (see header).
    cfg.hier.l3BytesPerSocket = 64ull << 10;
    // The L1D scales with the L3 so page-directory lines of the scaled
    // THP footprints overflow it as they do on the real machine.
    cfg.hier.l1dBytes = 4ull << 10;
    // Sandy-Bridge-style STLB (no 2 MB entries): preserves the paper's
    // large-page-count : TLB-reach ratio at scaled THP footprints.
    cfg.tlb.l2Holds2M = false;
    return cfg;
}

const char *
msConfigName(MsConfig config, bool thp)
{
    switch (config) {
      case MsConfig::F:
        return thp ? "TF" : "F";
      case MsConfig::FM:
        return thp ? "TF+M" : "F+M";
      case MsConfig::FA:
        return thp ? "TF-A" : "F-A";
      case MsConfig::FAM:
        return thp ? "TF-A+M" : "F-A+M";
      case MsConfig::I:
        return thp ? "TI" : "I";
      case MsConfig::IM:
        return thp ? "TI+M" : "I+M";
    }
    return "?";
}

namespace
{

/** THP footprint of the Figure 9b/10b/11 runs (paper: 32-192 GB). */
constexpr std::uint64_t ThpFootprint = 4ull << 30;

/** Run ops with periodic AutoNUMA scan ticks when enabled. */
void
runMeasured(os::Kernel &kernel, os::ExecContext &ctx,
            workloads::Workload &w, std::uint64_t ops, bool autonuma,
            std::uint64_t seed)
{
    if (!autonuma) {
        workloads::runInterleaved(ctx, w, ops);
        return;
    }
    // Linux AutoNUMA samples a bounded number of pages per period with
    // adaptive back-off; a light sampling rate models that. Heavier
    // rates thrash multi-socket workloads with page ping-pong.
    Rng rng(seed ^ 0x5eedull);
    std::uint64_t chunk = ops / 4 ? ops / 4 : ops;
    std::uint64_t done = 0;
    while (done < ops) {
        std::uint64_t now = std::min(chunk, ops - done);
        workloads::runInterleaved(ctx, w, now);
        kernel.autoNumaTick(0.005, rng);
        done += now;
    }
}

/** A Table 2 placement of the workload-migration scenario. */
struct WmPlacement
{
    const char *name = "LP-LD";
    bool remotePt = false;      //!< page-tables forced on socket B
    bool remoteData = false;    //!< data forced on socket B
    bool interference = false;  //!< STREAM-style hog on socket B
    bool mitosisMigrate = false; //!< +M: migrate PTs back to A
};

/** The Table 2 placements by name: LP-LD ... RPI-RDI, RPI-LD+M, TRPI-LD+M. */
WmPlacement
wmPlacement(const std::string &name)
{
    if (name == "LP-LD")
        return {"LP-LD", false, false, false, false};
    if (name == "LP-RD")
        return {"LP-RD", false, true, false, false};
    if (name == "LP-RDI")
        return {"LP-RDI", false, true, true, false};
    if (name == "RP-LD")
        return {"RP-LD", true, false, false, false};
    if (name == "RPI-LD")
        return {"RPI-LD", true, false, true, false};
    if (name == "RP-RD")
        return {"RP-RD", true, true, false, false};
    if (name == "RPI-RDI")
        return {"RPI-RDI", true, true, true, false};
    if (name == "RPI-LD+M")
        return {"RPI-LD+M", true, false, true, true};
    if (name == "TRPI-LD+M")
        return {"TRPI-LD+M", true, false, true, true};
    fatal("unknown workload-migration placement '%s'", name.c_str());
}

} // namespace

std::unique_ptr<snapshot::Universe>
preparePopulated(const PopulateSpec &spec)
{
    auto u = std::make_unique<snapshot::Universe>(
        spec.machine, spec.backend, core::MitosisConfig{},
        spec.kernelCfg);
    if (spec.fragmentation > 0.0) {
        Rng frag_rng(spec.fragSeed);
        for (SocketId s = 0; s < u->machine.numSockets(); ++s)
            u->machine.physmem().fragment(s, spec.fragmentation, frag_rng);
    }
    u->proc = &u->kernel.createProcess(spec.workload, spec.homeSocket);
    u->kernel.setDataPolicy(*u->proc, spec.dataPolicy,
                            spec.dataFixedSocket);
    u->kernel.setPtPlacement(*u->proc, spec.ptPlacement,
                             spec.ptFixedSocket);
    u->ctx = std::make_unique<os::ExecContext>(u->kernel, *u->proc);
    for (SocketId s : spec.threadSockets)
        u->ctx->addThread(s);
    u->workload = workloads::makeWorkload(spec.workload, spec.params);
    u->workload->setup(*u->ctx);
    // Discard populate-phase observability: a job's metrics describe
    // only what happens after this point.
    u->machine.metrics().reset();
    return u;
}

/// @name Job factories
/// @{

driver::JobResult
multiSocketJob(const ScenarioConfig &scenario, MsConfig config)
{
    PhaseTimer phases;

    bool interleave = config == MsConfig::I || config == MsConfig::IM;
    bool mitosis = config == MsConfig::FM || config == MsConfig::FAM ||
                   config == MsConfig::IM;
    bool autonuma = config == MsConfig::FA || config == MsConfig::FAM;

    PopulateSpec spec;
    spec.machine = benchMachine();
    spec.workload = scenario.workload;
    spec.params.footprint = scenario.footprint;
    spec.params.seed = scenario.seed;
    spec.params.thp = scenario.thp;
    spec.fragmentation = scenario.fragmentation;
    spec.fragSeed = scenario.seed ^ 0xf7a6ull;
    if (interleave) {
        spec.dataPolicy = os::DataPolicy::Interleave;
        spec.ptPlacement = pt::PtPlacement::Interleave;
    }
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);

    auto u = preparePopulated(spec);
    os::Kernel &kernel = u->kernel;
    os::Process &proc = *u->proc;

    // Post-populate config: the AutoNUMA flag only matters once scan
    // ticks run, and the replication mask diverges the configs.
    kernel.enableAutoNuma(proc, autonuma);
    if (mitosis) {
        u->mitosis().setReplicationMask(
            proc.roots(), proc.id(),
            SocketMask::all(u->machine.numSockets()));
        kernel.reloadContexts(proc);
    }
    phases.populateDone();

    runMeasured(kernel, *u->ctx, *u->workload, scenario.warmupOps,
                autonuma, scenario.seed);
    u->ctx->resetCounters();
    runMeasured(kernel, *u->ctx, *u->workload, scenario.measureOps,
                autonuma, scenario.seed + 1);
    phases.runDone();

    driver::JobResult result;
    RunOutcome &out = result.outcome.emplace();
    out.runtime = u->ctx->runtime();
    out.totals = u->ctx->totals();
    recordWalkAttribution(result, proc.id(), out.totals);
    u->finalize();
    recordJobStats(kernel, result);
    phases.stamp(result);
    return result;
}

driver::JobResult
placementJob(const ScenarioConfig &scenario, bool interleave)
{
    PhaseTimer phases;

    PopulateSpec spec;
    spec.machine = benchMachine();
    spec.workload = scenario.workload;
    spec.params.footprint = scenario.footprint;
    spec.params.seed = scenario.seed;
    spec.params.thp = scenario.thp;
    if (interleave) {
        spec.dataPolicy = os::DataPolicy::Interleave;
        spec.ptPlacement = pt::PtPlacement::Interleave;
    }
    for (SocketId s = 0; s < spec.machine.topo.numSockets; ++s)
        spec.threadSockets.push_back(s);

    auto u = preparePopulated(spec);
    phases.populateDone();
    // A short run so access-driven effects (faults, AutoNUMA) settle.
    workloads::runInterleaved(*u->ctx, *u->workload, scenario.warmupOps);
    phases.runDone();

    analysis::PtAnalyzer analyzer(u->machine.physmem(),
                                  u->kernel.ptOps());
    auto snap = analyzer.snapshot(u->proc->roots());

    driver::JobResult result;
    recordWalkAttribution(result, u->proc->id(), u->ctx->totals());
    u->finalize();
    recordJobStats(u->kernel, result);
    phases.stamp(result);
    for (SocketId s = 0; s < u->machine.numSockets(); ++s)
        result.value("remote_leaf_socket" + std::to_string(s),
                     snap.remoteLeafFractionFrom(s));
    result.text = snap.str();
    return result;
}

driver::JobResult
migrationJob(const ScenarioConfig &scenario, const std::string &placement)
{
    PhaseTimer phases;
    const WmPlacement wm = wmPlacement(placement);

    constexpr SocketId SocketA = 0;
    constexpr SocketId SocketB = 1;

    PopulateSpec spec;
    spec.machine = benchMachine();
    spec.workload = scenario.workload;
    spec.params.footprint = scenario.footprint;
    spec.params.seed = scenario.seed;
    spec.params.thp = scenario.thp;
    spec.fragmentation = scenario.fragmentation;
    spec.fragSeed = scenario.seed ^ 0xf7a6ull;
    spec.homeSocket = SocketA;
    spec.dataPolicy = os::DataPolicy::Fixed;
    spec.dataFixedSocket = wm.remoteData ? SocketB : SocketA;
    spec.ptPlacement = pt::PtPlacement::Fixed;
    spec.ptFixedSocket = wm.remotePt ? SocketB : SocketA;
    spec.threadSockets.push_back(SocketA);

    auto u = preparePopulated(spec);
    os::Kernel &kernel = u->kernel;
    os::Process &proc = *u->proc;

    // Post-populate config: +M migration and the bandwidth interferer
    // are what distinguish the Table 2 placements sharing a populate.
    if (wm.mitosisMigrate) {
        u->mitosis().migratePageTables(proc.roots(), proc.id(), SocketA);
        kernel.reloadContexts(proc);
    }
    if (wm.interference)
        u->machine.topology().addInterferer(SocketB);
    phases.populateDone();

    workloads::runInterleaved(*u->ctx, *u->workload, scenario.warmupOps);
    u->ctx->resetCounters();
    workloads::runInterleaved(*u->ctx, *u->workload, scenario.measureOps);
    phases.runDone();

    driver::JobResult result;
    RunOutcome &out = result.outcome.emplace();
    out.runtime = u->ctx->runtime();
    out.totals = u->ctx->totals();
    if (wm.interference)
        u->machine.topology().removeInterferer(SocketB);
    recordWalkAttribution(result, proc.id(), out.totals);
    u->finalize();
    recordJobStats(kernel, result);
    phases.stamp(result);
    return result;
}

std::vector<double>
placementFractions(const driver::JobResult &result)
{
    std::vector<double> fractions;
    for (const auto &[key, value] : result.values)
        if (key.rfind("remote_leaf_socket", 0) == 0)
            fractions.push_back(value);
    return fractions;
}

/// @}
/// @name Canonical matrices
/// @{

const std::vector<std::string> &
multiSocketWorkloads()
{
    static const std::vector<std::string> list = {
        "canneal", "memcached", "xsbench", "graph500", "hashjoin",
        "btree"};
    return list;
}

const std::vector<std::string> &
migrationWorkloads()
{
    static const std::vector<std::string> list = {
        "gups",    "btree",    "hashjoin",  "redis",
        "xsbench", "pagerank", "liblinear", "canneal"};
    return list;
}

const std::vector<MsConfig> &
msMatrixConfigs()
{
    static const std::vector<MsConfig> list = {
        MsConfig::F, MsConfig::FM, MsConfig::FA,
        MsConfig::FAM, MsConfig::I, MsConfig::IM};
    return list;
}

const std::vector<std::string> &
wmMatrixPlacements()
{
    static const std::vector<std::string> list = {
        "LP-LD", "LP-RD", "LP-RDI", "RP-LD", "RPI-LD", "RP-RD",
        "RPI-RDI"};
    return list;
}

void
registerMsMatrix(driver::JobRegistry &registry, bool thp)
{
    for (const std::string &name : multiSocketWorkloads()) {
        ScenarioConfig cfg;
        cfg.workload = name;
        if (thp) {
            cfg.footprint = ThpFootprint;
            // Figure 9b normalizes every THP bar to this 4 KB F run.
            ScenarioConfig base = cfg;
            registry.add(name + "/F-4k-base", [base] {
                return multiSocketJob(base, MsConfig::F);
            });
            cfg.thp = true;
        }
        for (MsConfig config : msMatrixConfigs()) {
            registry.add(name + "/" + msConfigName(config, thp),
                         [cfg, config] {
                             return multiSocketJob(cfg, config);
                         });
        }
    }
}

void
emitMsMatrix(const std::vector<driver::JobResult> &results,
             BenchReport &report, bool thp)
{
    const auto &configs = msMatrixConfigs();

    std::printf("%-11s", "workload");
    for (MsConfig config : configs)
        std::printf(" %8s", msConfigName(config, thp));
    std::printf("   speedups(+M)\n");

    std::size_t i = 0;
    for (const std::string &name : multiSocketWorkloads()) {
        double base = 0;
        if (thp)
            base = results[i++].runtime();
        std::vector<double> norm(configs.size());
        std::vector<double> walks(configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const driver::JobResult &res = results[i++];
            if (!thp && c == 0)
                base = res.runtime();
            norm[c] = res.runtime() / base;
            walks[c] = res.outcome->walkFraction();
            const char *config = msConfigName(configs[c], thp);
            recordOutcome(report, name + " " + config, res, base)
                .tag("workload", name)
                .tag("config", config);
        }
        std::printf("%-11s", name.c_str());
        for (double r : norm)
            std::printf(" %8.3f", r);
        // Each +M config directly follows its non-M partner, so the
        // speedup pairs are consecutive (config, config+M) couples.
        std::printf("  ");
        for (std::size_t pair = 0; 2 * pair + 1 < configs.size();
             ++pair) {
            std::printf(" %.2fx", norm[2 * pair] / norm[2 * pair + 1]);
            report.speedup(
                format("%s %s/%s", name.c_str(),
                       msConfigName(configs[2 * pair], thp),
                       msConfigName(configs[2 * pair + 1], thp)),
                norm[2 * pair] / norm[2 * pair + 1]);
        }
        std::printf("\n");
        std::printf("%-11s", "  walk%");
        for (double wf : walks)
            std::printf(" %7.0f%%", 100.0 * wf);
        std::printf("\n");
    }
}

void
registerWmMatrix(driver::JobRegistry &registry,
                 const std::vector<std::string> &workloads,
                 const std::vector<std::string> &placements)
{
    for (const std::string &name : workloads) {
        ScenarioConfig cfg;
        cfg.workload = name;
        for (const std::string &placement : placements) {
            registry.add(name + "/" + placement, [cfg, placement] {
                return migrationJob(cfg, placement);
            });
        }
    }
}

void
registerWmTrio(driver::JobRegistry &registry, const WmTrioSpec &spec)
{
    const bool thp = spec.thp();
    for (const std::string &name : spec.workloads) {
        ScenarioConfig cfg;
        cfg.workload = name;
        if (thp) {
            cfg.footprint = ThpFootprint;
            cfg.thp = true;
        }
        if (spec.baseline == WmBaseline::Base4k) {
            ScenarioConfig base = cfg;
            base.thp = false;
            registry.add(name + "/LP-LD-4k-base", [base] {
                return migrationJob(base, "LP-LD");
            });
        } else if (spec.baseline == WmBaseline::CleanThp) {
            ScenarioConfig base = cfg;
            registry.add(name + "/TLP-LD-clean-base", [base] {
                return migrationJob(base, "LP-LD");
            });
        }
        ScenarioConfig run = cfg;
        if (spec.baseline == WmBaseline::CleanThp)
            run.fragmentation = 1.0; // every 2MB block is broken
        const char *jobNames[3] = {thp ? "TLP-LD" : "LP-LD",
                                   thp ? "TRPI-LD" : "RPI-LD",
                                   thp ? "TRPI-LD+M" : "RPI-LD+M"};
        const char *placements[3] = {"LP-LD", "RPI-LD",
                                     thp ? "TRPI-LD+M" : "RPI-LD+M"};
        for (int k = 0; k < 3; ++k) {
            std::string placement = placements[k];
            registry.add(name + "/" + jobNames[k], [run, placement] {
                return migrationJob(run, placement);
            });
        }
    }
}

void
emitWmTrio(const std::vector<driver::JobResult> &results,
           BenchReport &report, const WmTrioSpec &spec)
{
    const bool thp = spec.thp();
    const char *cols[3] = {thp ? "TLP-LD" : "LP-LD",
                           thp ? "TRPI-LD" : "RPI-LD",
                           thp ? "TRPI-LD+M" : "RPI-LD+M"};
    std::printf("%-11s %9s %9s %9s   %s\n", "workload", cols[0],
                cols[1], cols[2], "improvement(+M)");

    std::size_t i = 0;
    for (const std::string &name : spec.workloads) {
        double base = 0;
        double clean = 0;
        if (spec.baseline == WmBaseline::Base4k)
            base = results[i++].runtime();
        else if (spec.baseline == WmBaseline::CleanThp)
            clean = results[i++].runtime();
        const driver::JobResult &lp = results[i++];
        const driver::JobResult &rpi = results[i++];
        const driver::JobResult &mito = results[i++];
        if (spec.baseline != WmBaseline::Base4k)
            base = lp.runtime();

        double improvement = rpi.runtime() / mito.runtime();
        std::printf("%-11s %9.2f %9.2f %9.2f   %.2fx", name.c_str(),
                    lp.runtime() / base, rpi.runtime() / base,
                    mito.runtime() / base, improvement);
        if (spec.baseline == WmBaseline::CleanThp)
            std::printf("   (4KB-fallback cost vs clean THP: %.2fx)",
                        base / clean);
        std::printf("\n");

        BenchRun &lp_run =
            recordOutcome(report, name + " " + cols[0], lp, base)
                .tag("workload", name)
                .tag("config", cols[0]);
        if (spec.baseline == WmBaseline::CleanThp)
            lp_run.metric("fallback_cost_vs_clean_thp", base / clean);
        recordOutcome(report, name + " " + cols[1], rpi, base)
            .tag("workload", name)
            .tag("config", cols[1]);
        recordOutcome(report, name + " " + cols[2], mito, base)
            .tag("workload", name)
            .tag("config", cols[2]);
        report.speedup(
            format("%s %s/%s", name.c_str(), cols[1], cols[2]),
            improvement);
    }
}

/// @}

void
printTitle(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

void
printRow(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
}

void
describeMachine(BenchReport &report)
{
    const sim::MachineConfig cfg = benchMachine();
    report.config("num_sockets",
                  static_cast<double>(cfg.topo.numSockets));
    report.config("cores_per_socket",
                  static_cast<double>(cfg.topo.coresPerSocket));
    report.config("mem_per_socket_bytes",
                  static_cast<double>(cfg.topo.memPerSocket));
    report.config("l3_bytes_per_socket",
                  static_cast<double>(cfg.hier.l3BytesPerSocket));
    report.config("l1d_bytes", static_cast<double>(cfg.hier.l1dBytes));
    report.config("dram_local_latency",
                  static_cast<double>(cfg.topo.dramLocalLatency));
    report.config("stlb_holds_2m", cfg.tlb.l2Holds2M ? "yes" : "no");
    // Physical contiguity capacity: fully-free 2 MB blocks per socket
    // on the pristine machine. With the fragmentation knob in config
    // (fig11 / ext_thp_aging) this pins down the physical state a run
    // started from; live per-socket values are job metrics.
    report.config("free_2m_blocks_per_socket",
                  static_cast<double>(cfg.topo.memPerSocket /
                                      LargePageSize));
}

void
describeScenario(BenchReport &report, const ScenarioConfig &scenario)
{
    report.config("footprint_bytes",
                  static_cast<double>(scenario.footprint));
    report.config("thp", scenario.thp ? "on" : "off");
    report.config("warmup_ops", static_cast<double>(scenario.warmupOps));
    report.config("measure_ops",
                  static_cast<double>(scenario.measureOps));
    report.config("seed", static_cast<double>(scenario.seed));
    if (scenario.fragmentation > 0.0)
        report.config("fragmentation", scenario.fragmentation);
}

BenchRun &
recordOutcome(BenchReport &report, const std::string &label,
              const RunOutcome &out, double normBase)
{
    BenchRun &run = report.addRun(label);
    run.metric("runtime_cycles", static_cast<double>(out.runtime));
    if (normBase > 0.0)
        run.metric("norm_runtime",
                   static_cast<double>(out.runtime) / normBase);
    run.metric("walk_fraction", out.walkFraction());
    run.metric("remote_pt_fraction", out.remotePtFraction());
    return run;
}

BenchRun &
recordOutcome(BenchReport &report, const std::string &label,
              const driver::JobResult &result, double normBase)
{
    if (!result.outcome)
        fatal("recordOutcome: job '%s' carries no run outcome",
              label.c_str());
    return recordOutcome(report, label, *result.outcome, normBase);
}

BenchRun &
recordPlacement(BenchReport &report, const std::string &label,
                const driver::JobResult &result)
{
    BenchRun &run = report.addRun(label);
    for (const auto &[key, value] : result.values)
        run.metric(key, value);
    return run;
}

namespace
{

/**
 * Host-side hot-path telemetry: fused replay activity summed over cores
 * (Core::fusedRuns / fusedOps) and metadata/table-arena slab and chunk
 * counters (PhysicalMemory). Host throughput context like
 * host_ops_per_sec, it varies legitimately with MITOSIM_FUSE.
 */
void
recordHostStats(sim::Machine &machine, driver::JobResult &res)
{
    std::uint64_t runs = 0;
    std::uint64_t ops = 0;
    for (CoreId c = 0; c < machine.numCores(); ++c) {
        runs += machine.core(c).fusedRuns();
        ops += machine.core(c).fusedOps();
    }
    res.hostStat("fused_runs", static_cast<double>(runs));
    res.hostStat("fused_ops", static_cast<double>(ops));

    const mem::PhysicalMemory &pm = machine.physmem();
    mem::TableArenaStats arena = pm.tableArenaStats();
    res.hostStat("arena_meta_chunks",
                 static_cast<double>(pm.metaChunksMaterialized()));
    res.hostStat("arena_table_chunks", static_cast<double>(arena.chunks));
    res.hostStat("arena_slot_recycles",
                 static_cast<double>(arena.slotRecycles));

    mem::SlabPoolStats pool = mem::slabPoolStats();
    res.hostStat("arena_slabs",
                 static_cast<double>(pool.metaSlabs + pool.tableSlabs));
    res.hostStat("arena_chunk_recycles",
                 static_cast<double>(pool.metaRecycles +
                                     pool.tableRecycles));
}

// The check_* counters stay out of the machine registry because a
// standalone Checker (built outside a kernel) has no registry to feed.
void
recordCheckStats(os::Kernel &kernel, driver::JobResult &res)
{
    check::Checker *chk = kernel.checker();
    if (!chk)
        return;
    // Fires the whole battery one last time on the final machine
    // state; with the default fail-fast config a violation fatal()s
    // here, so the stats below only ever describe a passing run.
    chk->atEndOfRun();
    const check::CheckStats &s = chk->stats();
    res.metricStat("check_checkpoints", static_cast<double>(s.checkpoints));
    res.metricStat("check_checks_run", static_cast<double>(s.checksRun));
    res.metricStat("check_violations", static_cast<double>(s.violations));
    res.metricStat("check_replica_tables_compared",
                   static_cast<double>(s.replicaTablesCompared));
    res.metricStat("check_leaves_checked",
                   static_cast<double>(s.leavesChecked));
    res.metricStat("check_frames_accounted",
                   static_cast<double>(s.framesAccounted));
}

} // namespace

void
recordJobStats(os::Kernel &kernel, driver::JobResult &res)
{
    sim::Machine &machine = kernel.machine();
    recordHostStats(machine, res);
    for (const auto &[key, value] : machine.metrics().flatten())
        res.metricStat(key, value);
    recordCheckStats(kernel, res);
}

void
recordWalkAttribution(driver::JobResult &res, ProcId pid,
                      const sim::PerfCounters &totals)
{
    for (unsigned level = 1; level <= PtLevels; ++level) {
        for (int remote = 0; remote < 2; ++remote) {
            res.metricStat(
                format("walk_cycles_L%u_%s{pid=%d}", level,
                       remote ? "remote" : "local",
                       static_cast<int>(pid)),
                static_cast<double>(
                    totals.walkCyclesAttr[level - 1][remote]));
        }
    }
    // The buckets above sum to exactly this (the attribution
    // invariant); recording the total makes the report self-checkable.
    res.metricStat(format("walk_cycles_total{pid=%d}",
                          static_cast<int>(pid)),
                   static_cast<double>(totals.walkCycles));
}

} // namespace mitosim::bench
