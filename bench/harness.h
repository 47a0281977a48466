/**
 * @file
 * Shared benchmark harness: the two experimental scenarios of the paper
 * (§3/§8) with their full configuration matrices, plus table printing.
 *
 * The harness is expressed as *job factories* for the parallel
 * experiment runner (src/driver): every config point of a figure/table
 * becomes a named driver::Job whose thunk builds a private Machine +
 * Kernel and returns a driver::JobResult, and the duplicated matrix
 * loops of the fig09a/b, fig10a/b and fig11 binaries live here once
 * as register/emit pairs.
 *
 * Scaling: footprints are 128 MiB against a 64 KiB/socket L3, preserving
 * the paper's leaf-PTE-working-set : L3 ratio (~4:1) that makes 4 KB-page
 * walks DRAM-bound, and the paper's DRAM latencies (280/580 cycles).
 * Absolute numbers differ from the paper's testbed; shapes are the
 * reproduction target (see EXPERIMENTS.md).
 */

#ifndef MITOSIM_BENCH_HARNESS_H
#define MITOSIM_BENCH_HARNESS_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/analysis/pt_dump.h"
#include "src/core/mitosis.h"
#include "src/driver/job.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/sim/machine.h"
#include "src/snapshot/snapshot.h"
#include "src/workloads/workload.h"

namespace mitosim::bench
{

/** Machine used by all scenario benches. */
sim::MachineConfig benchMachine();

/** Common workload knobs. */
struct ScenarioConfig
{
    std::string workload;
    std::uint64_t footprint = 128ull << 20;
    bool thp = false;
    std::uint64_t warmupOps = 2000;
    std::uint64_t measureOps = 6000;
    std::uint64_t seed = 42;
    double fragmentation = 0.0; //!< pre-fragment all sockets (Fig 11)
};

/** What a run produced (defined with the driver's Job machinery). */
using RunOutcome = driver::RunOutcome;

/**
 * Host wall-clock phase stamps for the report's wall_ms breakdown.
 * Construct at job entry, call populateDone() once the simulated
 * machine is built and populated (setup complete, replication applied),
 * runDone() after the last simulated operation, then stamp() the
 * result. Whatever wall-clock the job spends after runDone() —
 * teardown, end-of-run checks, analysis — lands in the derived
 * "report" phase (total - populate - run).
 */
class PhaseTimer
{
  public:
    PhaseTimer() : start_(std::chrono::steady_clock::now()) {}

    void populateDone() { populateMs_ = elapsedMs(); }
    void runDone() { runMs_ = elapsedMs(); }

    double populateMs() const { return populateMs_; }
    double
    runMs() const
    {
        return runMs_ > populateMs_ ? runMs_ - populateMs_ : 0.0;
    }

    void
    stamp(driver::JobResult &res) const
    {
        res.wallPopulateMs = populateMs();
        res.wallRunMs = runMs();
    }

  private:
    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    std::chrono::steady_clock::time_point start_;
    double populateMs_ = 0.0;
    double runMs_ = 0.0;
};

/// @name Shared populate path
/// @{

/**
 * Everything that determines the state of a populated universe: one
 * spec = one deterministic populate. The matrix runners,
 * ext_paper_scale and ext_thp_aging all build their machine through
 * this single helper.
 *
 * Deliberately *not* part of the spec: anything that acts only after
 * populate — AutoNUMA enablement, the Mitosis replication mask,
 * page-table migration, bandwidth interferers, warmup/measure op
 * counts. Callers apply those to the returned universe. THP daemon
 * settings ride in kernelCfg but act only through ticks after
 * populate.
 */
struct PopulateSpec
{
    sim::MachineConfig machine;
    snapshot::BackendKind backend = snapshot::BackendKind::Mitosis;
    core::MitosisConfig mitosisCfg;
    os::KernelConfig kernelCfg;
    std::string workload;
    workloads::WorkloadParams params;
    double fragmentation = 0.0; //!< fragment all sockets before populate
    std::uint64_t fragSeed = 0;
    SocketId homeSocket = 0;
    os::DataPolicy dataPolicy = os::DataPolicy::FirstTouch;
    SocketId dataFixedSocket = 0;
    pt::PtPlacement ptPlacement = pt::PtPlacement::FirstTouch;
    SocketId ptFixedSocket = 0;
    std::vector<SocketId> threadSockets; //!< one addThread per entry
};

/**
 * A freshly built universe, populated per @p spec, with the populate
 * phase's metrics and trace discarded. The caller owns the result,
 * applies its post-populate config, runs, records metrics, then calls
 * Universe::finalize().
 */
std::unique_ptr<snapshot::Universe>
preparePopulated(const PopulateSpec &spec);

/// @}
/// @name Multi-socket scenario (Table 3 configs: F, F+M, F-A, F-A+M, I, I+M)
/// @{

enum class MsConfig
{
    F,   //!< first-touch data + PT
    FM,  //!< first-touch + Mitosis replication
    FA,  //!< first-touch + AutoNUMA data migration
    FAM, //!< first-touch + AutoNUMA + Mitosis
    I,   //!< interleaved data + PT
    IM,  //!< interleaved + Mitosis
};

const char *msConfigName(MsConfig config, bool thp);

/**
 * Threads on every socket; returns aggregate counters + runtime. When
 * @p sink is non-null and the kernel ran with vmcheck enabled
 * (MITOSIM_CHECK=1), the end-of-run invariant battery fires and its
 * counters land in @p sink's "metrics" section (see recordJobStats).
 */
RunOutcome runMultiSocket(const ScenarioConfig &scenario, MsConfig config,
                          driver::JobResult *sink = nullptr);

/**
 * Remote-leaf-PTE percentages per observing socket for a multi-socket
 * workload after setup with first-touch placement (Figures 1/4), and the
 * full snapshot (Figure 3).
 */
struct PlacementAnalysis
{
    std::vector<double> remoteLeafFraction; //!< per observing socket
    std::string figure3Dump;
    double wallPopulateMs = 0.0; //!< host phase stamps (see PhaseTimer)
    double wallRunMs = 0.0;
};

/** With @p sink, vmcheck's counters land there (see recordCheckStats). */
PlacementAnalysis analyzePlacement(const ScenarioConfig &scenario,
                                   bool interleave = false,
                                   driver::JobResult *sink = nullptr);

/// @}
/// @name Workload migration scenario (Table 2 configs)
/// @{

struct WmPlacement
{
    const char *name = "LP-LD";
    bool remotePt = false;      //!< page-tables forced on socket B
    bool remoteData = false;    //!< data forced on socket B
    bool interference = false;  //!< STREAM-style hog on socket B
    bool mitosisMigrate = false; //!< +M: migrate PTs back to A
};

/** The seven Table 2 placements by name: LP-LD ... RPI-RDI. */
WmPlacement wmPlacement(const std::string &name);

/** Single thread on socket A; placement per @p wm. @p sink as above. */
RunOutcome runWorkloadMigration(const ScenarioConfig &scenario,
                                const WmPlacement &wm,
                                driver::JobResult *sink = nullptr);

/// @}
/// @name Job factories (the scenario runs as driver jobs)
/// @{

/** runMultiSocket as a JobResult-returning config point. */
driver::JobResult multiSocketJob(const ScenarioConfig &scenario,
                                 MsConfig config);

/** runWorkloadMigration for the Table 2 placement named @p placement. */
driver::JobResult migrationJob(const ScenarioConfig &scenario,
                               const std::string &placement);

/**
 * analyzePlacement as a job: one remote_leaf_socket<N> value per
 * observing socket (in socket order) plus the Figure 3 dump as text.
 */
driver::JobResult placementJob(const ScenarioConfig &scenario,
                               bool interleave = false);

/** The remote-leaf fractions recorded by placementJob, socket order. */
std::vector<double> placementFractions(const driver::JobResult &result);

/// @}
/// @name Canonical workload / config matrices (deduplicated from mains)
/// @{

/** Multi-socket scenario workloads (Figures 1/3/4/9). */
const std::vector<std::string> &multiSocketWorkloads();

/** Workload-migration scenario workloads (Figures 6/10). */
const std::vector<std::string> &migrationWorkloads();

/** The six Table 3 configs in figure order: F, F+M, F-A, F-A+M, I, I+M. */
const std::vector<MsConfig> &msMatrixConfigs();

/** The seven Table 2 placements in figure order: LP-LD ... RPI-RDI. */
const std::vector<std::string> &wmMatrixPlacements();

/**
 * Register the Figure 9 matrix: for every multi-socket workload the six
 * Table 3 configs ("<wl>/<config>"), preceded in THP mode by the 4 KB F
 * baseline job ("<wl>/F-4k-base") that Figure 9b normalizes to.
 */
void registerMsMatrix(driver::JobRegistry &registry, bool thp);

/** Print + record the matrix registered by registerMsMatrix. */
void emitMsMatrix(const std::vector<driver::JobResult> &results,
                  BenchReport &report, bool thp);

/** One migration job per (workload, placement), named "<wl>/<pl>". */
void registerWmMatrix(driver::JobRegistry &registry,
                      const std::vector<std::string> &workloads,
                      const std::vector<std::string> &placements);

/** What the Figure 10/11 trio (LP-LD, RPI-LD, +M) is normalized to. */
enum class WmBaseline
{
    None,     //!< Fig 10a: the trio's own LP-LD, 4 KB pages
    Base4k,   //!< Fig 10b: a separate 4 KB LP-LD run; trio uses THP
    CleanThp, //!< Fig 11: unfragmented TLP-LD; trio is fragmented THP
};

struct WmTrioSpec
{
    std::vector<std::string> workloads;
    WmBaseline baseline = WmBaseline::None;

    bool thp() const { return baseline != WmBaseline::None; }
};

/**
 * Register the Figure 10/11 shape: per workload an optional baseline
 * job followed by LP-LD / RPI-LD / RPI-LD+M (T-prefixed under THP).
 */
void registerWmTrio(driver::JobRegistry &registry, const WmTrioSpec &spec);

/** Print + record the trio registered by registerWmTrio. */
void emitWmTrio(const std::vector<driver::JobResult> &results,
                BenchReport &report, const WmTrioSpec &spec);

/// @}
/// @name Output helpers
/// @{

void printTitle(const std::string &title);
void printRow(const char *fmt, ...);

/// @}
/// @name JSON result reporting (see report.h for the schema)
/// @{

/** Record benchMachine()'s shape in @p report's config section. */
void describeMachine(BenchReport &report);

/** Record @p scenario's workload-independent knobs in the config. */
void describeScenario(BenchReport &report, const ScenarioConfig &scenario);

/**
 * Add @p out as a run: raw runtime plus walk / remote-PT fractions, and
 * runtime normalized to @p normBase when normBase > 0. Returns the run
 * so callers can attach tags and extra metrics.
 */
BenchRun &recordOutcome(BenchReport &report, const std::string &label,
                        const RunOutcome &out, double normBase = 0.0);

/** recordOutcome for a job result that must carry an outcome. */
BenchRun &recordOutcome(BenchReport &report, const std::string &label,
                        const driver::JobResult &result,
                        double normBase = 0.0);

/**
 * One-stop end-of-job stat sink: copies every diagnostic surface the
 * job's kernel/machine accumulated into @p res. The flattened src/obs
 * metrics registry (scheduler sched_*, THP lifecycle thp_*, ...) and,
 * when the kernel runs vmcheck, the end-of-run battery's counters as
 * check_* keys land in the "metrics" section; host hot-path telemetry
 * (fused replay activity, table-arena counters) lands in the per-job
 * "wall_ms" entry; the exported trace JSON (empty unless MITOSIM_TRACE
 * enabled categories) goes to its own file. With the default
 * fail-fast checker a violation fatal()s here, so a report whose
 * metrics carry check_violations == 0 really did pass the battery.
 * Call once per job, after Universe::finalize() / finalizeProcess().
 */
void recordJobStats(os::Kernel &kernel, driver::JobResult &res);

/**
 * The check_* part of recordJobStats alone, for jobs whose reports
 * carry no registry metrics: runs the kernel's end-of-run vmcheck
 * battery and records its counters. A no-op without a checker, so an
 * unchecked report is unchanged.
 */
void recordCheckStats(os::Kernel &kernel, driver::JobResult &res);

/**
 * Record @p totals' walk-cycle attribution (PerfCounters::walkCyclesAttr)
 * into @p res's "metrics" section as walk_cycles_L<level>_<local|remote>
 * keys labelled {pid=<pid>} — one call per measured process, before the
 * process is finalized. The buckets sum exactly to totals.walkCycles.
 */
void recordWalkAttribution(driver::JobResult &res, ProcId pid,
                           const sim::PerfCounters &totals);

/**
 * Add a placementJob result as a run with one remote_leaf_socket<N>
 * metric per observing socket. Returns the run for extra tags.
 */
BenchRun &recordPlacement(BenchReport &report, const std::string &label,
                          const driver::JobResult &result);

/// @}

} // namespace mitosim::bench

#endif // MITOSIM_BENCH_HARNESS_H
