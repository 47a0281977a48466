/**
 * @file
 * Extension: multi-tenant consolidation under the time-sharing
 * scheduler (the §3.2/§5.3 scenario MitoSim's pinned kernel could not
 * express).
 *
 * Eight tenant processes — memcached, redis and GUPS instances — are
 * "homed" round-robin across all four sockets: their data AND their
 * page-tables are bound there (Fixed policies, the paper's §3.2
 * methodology for a process whose state was allocated before the
 * scheduler moved it). The consolidation scheduler then packs every
 * tenant's worker thread onto the cores of sockets 0-1 only — half the
 * machine, 2x oversubscribed — so tenants time-share cores and half of
 * them run remote from their memory.
 *
 * The 2x2 matrix separates the two mechanisms:
 *
 *  - {PCID off, PCID on}: with PCID off every context switch flushes
 *    TLB+PWC, so each timeslice starts with a cold refill; PCID keeps
 *    each tenant's tagged entries alive across its neighbours' slices.
 *    Measured by the post-switch window counters (misses and walk
 *    cycles in the first 256 accesses after each CR3 load).
 *
 *  - {native, mitosis}: native walks reach back to the home socket's
 *    page-tables forever; Mitosis (schedule-driven, §5.3) replicates a
 *    tenant's page-table onto a socket at its first timeslice there,
 *    making all later walks local. Data stays remote either way —
 *    exactly the paper's point that page-table locality is a separate
 *    axis from data locality.
 *
 * Expected shape: PCID-on cuts post-switch TLB/PWC miss cycles vs
 * PCID-off within a backend; mitosis cuts (post-switch and total) walk
 * cycles vs native within a PCID mode; the combination is best.
 */

#include "bench/harness.h"

#include <memory>

#include "src/base/logging.h"
#include "src/driver/bench_main.h"
#include "src/pvops/native_backend.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

struct TenantSpec
{
    const char *workload;
    std::uint64_t footprint;
};

/** Hot-set sizes chosen against the 1024-entry STLB: the key-value
 *  tenants' skewed hot sets fit (PCID retention pays), GUPS thrashes
 *  (its misses are all refills); leaf-PTE sets overflow the 64 KiB L3
 *  so walks touch DRAM and PT locality matters. */
constexpr TenantSpec Tenants[] = {
    {"memcached", 24ull << 20}, {"redis", 24ull << 20},
    {"gups", 32ull << 20},      {"memcached", 24ull << 20},
    {"redis", 24ull << 20},     {"gups", 32ull << 20},
    {"memcached", 24ull << 20}, {"redis", 24ull << 20},
};
constexpr int NumTenants =
    static_cast<int>(sizeof(Tenants) / sizeof(Tenants[0]));

/** Tenant threads are packed onto sockets [0, ConsolidatedSockets). */
constexpr int ConsolidatedSockets = 2;

constexpr std::uint64_t WarmupRounds = 6;
constexpr std::uint64_t MeasureRounds = 24;
constexpr std::uint64_t StepsPerSlice = 50;

struct Config
{
    const char *name;
    const char *slug;
    bool mitosis;
    bool pcid;
};

constexpr Config Configs[] = {
    {"native/pcid-off", "native-nopcid", false, false},
    {"native/pcid-on", "native-pcid", false, true},
    {"mitosis/pcid-off", "mitosis-nopcid", true, false},
    {"mitosis/pcid-on", "mitosis-pcid", true, true},
};

struct Tenant
{
    os::Process *proc = nullptr;
    std::unique_ptr<os::ExecContext> ctx;
    std::unique_ptr<workloads::Workload> work;
};

driver::JobResult
run(bool use_mitosis, bool pcid)
{
    PhaseTimer phases;
    sim::Machine machine(benchMachine());

    std::unique_ptr<pvops::PvOps> backend;
    core::MitosisBackend *mitosis = nullptr;
    if (use_mitosis) {
        // §5.3: each tenant replicates at its first timeslice on a socket.
        auto owned = std::make_unique<core::MitosisBackend>(
            machine.physmem(),
            core::MitosisConfig{.policy = core::SystemPolicy::AllProcesses});
        mitosis = owned.get();
        mitosis->attachObs(machine.metrics());
        backend = std::move(owned);
    } else {
        backend =
            std::make_unique<pvops::NativeBackend>(machine.physmem());
    }

    os::KernelConfig kcfg;
    kcfg.sched.timeShared = true;
    kcfg.sched.pcid = pcid;
    os::Kernel kernel(machine, *backend, kcfg);

    std::vector<Tenant> tenants(NumTenants);
    for (int i = 0; i < NumTenants; ++i) {
        SocketId home = i % machine.numSockets();
        SocketId run_socket = i % ConsolidatedSockets;
        Tenant &t = tenants[i];
        t.proc = &kernel.createProcess(
            format("tenant%d-%s", i, Tenants[i].workload), home);
        // Tenant state is bound to its home NUMA node (allocated there
        // before consolidation); only the compute moves.
        kernel.setDataPolicy(*t.proc, os::DataPolicy::Fixed, home);
        kernel.setPtPlacement(*t.proc, pt::PtPlacement::Fixed, home);
        t.ctx = std::make_unique<os::ExecContext>(kernel, *t.proc);
        t.ctx->addThread(run_socket);

        workloads::WorkloadParams params;
        params.footprint = Tenants[i].footprint;
        params.seed = 42 + static_cast<std::uint64_t>(i);
        t.work = workloads::makeWorkload(Tenants[i].workload, params);
        t.work->setup(*t.ctx);
    }
    phases.populateDone();

    // Round-robin slices: each tenant runs a burst of operations, then
    // the next tenant's dispatch context-switches the shared core.
    auto rounds = [&](std::uint64_t n) {
        for (std::uint64_t r = 0; r < n; ++r) {
            for (auto &t : tenants)
                workloads::runInterleaved(*t.ctx, *t.work, StepsPerSlice);
        }
    };
    rounds(WarmupRounds);
    for (auto &t : tenants)
        t.ctx->resetCounters();
    rounds(MeasureRounds);
    phases.runDone();

    driver::RunOutcome out;
    for (auto &t : tenants) {
        sim::PerfCounters pc = t.ctx->totals();
        out.totals.add(pc);
        out.runtime = std::max(out.runtime, pc.cycles);
    }

    driver::JobResult res = driver::JobResult::of(out);
    res.value("post_switch_tlb_misses",
              static_cast<double>(out.totals.postSwitchTlbMisses));
    res.value("post_switch_walk_cycles",
              static_cast<double>(out.totals.postSwitchWalkCycles));
    res.value("walk_cycles",
              static_cast<double>(out.totals.walkCycles));
    res.value("context_switches",
              static_cast<double>(out.totals.contextSwitches));
    if (mitosis) {
        res.value("schedule_replications",
                  static_cast<double>(
                      mitosis->stats().scheduleReplications));
    }

    // Per-tenant walk-cycle attribution: eight pid-labelled bucket
    // sets, the per-job table EXPERIMENTS.md's consolidation analysis
    // reads (which tenants walk remote, at which level).
    for (auto &t : tenants)
        recordWalkAttribution(res, t.proc->id(), t.ctx->totals());

    for (auto &t : tenants)
        kernel.finalizeProcess(*t.proc);
    // Under MITOSIM_CHECK=1 CI runs this bench and asserts that every
    // job's metrics carry check_violations == 0.
    recordJobStats(kernel, res);
    phases.stamp(res);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "ext_consolidation";
    spec.title = "Extension: multi-tenant consolidation — time-shared "
                 "cores, {PCID off/on} x {native, mitosis}";
    spec.describe = [](BenchReport &report) {
        describeMachine(report);
        report.config("tenants", NumTenants);
        report.config("consolidated_sockets", ConsolidatedSockets);
        report.config("steps_per_slice",
                      static_cast<double>(StepsPerSlice));
        report.config("measure_rounds",
                      static_cast<double>(MeasureRounds));
    };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const Config &c : Configs)
            registry.add(c.slug, [c] { return run(c.mitosis, c.pcid); });
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-18s %12s %14s %14s %12s\n", "config",
                    "runtime", "ps_miss", "ps_walk_cyc", "walk_frac");
        double base = 0;
        std::size_t i = 0;
        for (const Config &c : Configs) {
            const driver::JobResult &res = results[i++];
            if (base == 0)
                base = res.runtime();
            std::printf("%-18s %12.3f %14.0f %14.0f %11.1f%%\n", c.name,
                        res.runtime() / base,
                        res.valueOf("post_switch_tlb_misses"),
                        res.valueOf("post_switch_walk_cycles"),
                        100.0 * res.outcome->walkFraction());
            BenchRun &run_rec = recordOutcome(report, c.name, res, base);
            run_rec.tag("backend", c.mitosis ? "mitosis" : "native")
                .tag("pcid", c.pcid ? "on" : "off")
                .metric("post_switch_tlb_misses",
                        res.valueOf("post_switch_tlb_misses"))
                .metric("post_switch_walk_cycles",
                        res.valueOf("post_switch_walk_cycles"))
                .metric("walk_cycles", res.valueOf("walk_cycles"))
                .metric("context_switches",
                        res.valueOf("context_switches"));
        }

        // Headline ratios: the two mechanisms, isolated.
        auto of = [&](const char *slug) -> const driver::JobResult & {
            for (std::size_t k = 0; k < 4; ++k) {
                if (std::string(Configs[k].slug) == slug)
                    return results[k];
            }
            fatal("unknown config '%s'", slug);
        };
        double pcid_gain =
            of("native-nopcid").valueOf("post_switch_walk_cycles") /
            of("native-pcid").valueOf("post_switch_walk_cycles");
        double mitosis_gain =
            of("native-pcid").valueOf("post_switch_walk_cycles") /
            of("mitosis-pcid").valueOf("post_switch_walk_cycles");
        report.speedup("post-switch walk cycles, PCID on vs off (native)",
                       pcid_gain);
        report.speedup(
            "post-switch walk cycles, mitosis vs native (PCID on)",
            mitosis_gain);
        std::printf("\nPCID on cuts native post-switch walk cycles "
                    "%.2fx; mitosis cuts them a further %.2fx "
                    "(schedule-driven replicas make remote tenants' "
                    "walks local)\n",
                    pcid_gain, mitosis_gain);
    };
    return driver::benchMain(argc, argv, spec);
}
