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

#include <algorithm>
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
 * Host phase stamps for the report's wall_ms breakdown, in wall-clock
 * and in the job thread's CPU time (driver::threadCpuMs). Construct at
 * job entry, call populateDone() once the simulated machine is built
 * and populated (setup complete, replication applied), runDone() after
 * the last simulated operation, then stamp() the result. Whatever time
 * the job spends after runDone() — teardown, end-of-run checks,
 * analysis — lands in the derived "report" phase (total - populate -
 * run).
 */
class PhaseTimer
{
  public:
    PhaseTimer()
        : start_(std::chrono::steady_clock::now()),
          cpuStart_(driver::threadCpuMs())
    {
    }

    void populateDone() { populate_ = now(); }
    void runDone() { run_ = now(); }

    void
    stamp(driver::JobResult &res) const
    {
        res.wallPopulateMs = populate_.wall;
        res.wallRunMs = std::max(run_.wall - populate_.wall, 0.0);
        res.cpuPopulateMs = populate_.cpu;
        res.cpuRunMs = std::max(run_.cpu - populate_.cpu, 0.0);
    }

  private:
    /** Milliseconds since construction, both clocks. */
    struct Stamp
    {
        double wall = 0.0;
        double cpu = 0.0;
    };

    Stamp
    now() const
    {
        return {std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start_)
                    .count(),
                driver::threadCpuMs() - cpuStart_};
    }

    std::chrono::steady_clock::time_point start_;
    double cpuStart_;
    Stamp populate_;
    Stamp run_;
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
 * phase's metrics discarded. The caller owns the result,
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

/// @}
/// @name Job factories (the scenario runs as driver jobs)
/// @{
///
/// Each job records its metrics, walk-cycle attribution and host phase
/// stamps in the JobResult it returns (see recordJobStats); when the
/// kernel runs with vmcheck enabled (MITOSIM_CHECK=1) the end-of-run
/// invariant battery fires and its counters land there too.

/**
 * Multi-socket scenario: threads on every socket under Table 3 config
 * @p config; the outcome holds aggregate counters + runtime.
 */
driver::JobResult multiSocketJob(const ScenarioConfig &scenario,
                                 MsConfig config);

/**
 * Workload-migration scenario: a single thread on socket A under the
 * Table 2 placement named @p placement (LP-LD ... TRPI-LD+M).
 */
driver::JobResult migrationJob(const ScenarioConfig &scenario,
                               const std::string &placement);

/**
 * Page-table placement after setup and a short run (Figures 1/3/4):
 * one remote_leaf_socket<N> value (remote-leaf-PTE fraction) per
 * observing socket, in socket order, plus the Figure 3 dump as text.
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
 * "wall_ms" entry. With the default fail-fast checker a violation
 * fatal()s here, so a report whose metrics carry check_violations == 0
 * really did pass the battery.
 * Call once per job, after Universe::finalize() / finalizeProcess().
 */
void recordJobStats(os::Kernel &kernel, driver::JobResult &res);

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
