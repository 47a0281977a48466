/**
 * @file
 * Populate-phase checkpointing: capture a fully populated Machine +
 * Kernel once, then fork every bench job that shares the populate from
 * the captured state instead of re-faulting gigabytes of pages.
 *
 * A paper-scale matrix (registerMsMatrix, registerWmTrio, the THP aging
 * study) runs the *same* deterministic populate — same workload, seed,
 * footprint, placement policies, fragmentation — under many measurement
 * configs (replication mask on/off, AutoNUMA on/off, THP daemons
 * on/off, interferers). Everything that distinguishes those configs
 * acts strictly *after* populate, so the post-populate state is shared.
 * MitoSim state is small and explicit (frame allocators, PageMeta,
 * host-backed page-table pages, caches, TLBs, run queues), which makes
 * a checkpoint an exact deep copy rather than a serialization format:
 *
 *  - Universe owns one complete simulation stack (Machine, PV-Ops
 *    backend, Kernel, the populated Process, the Workload generator
 *    and its ExecContext) with the construction-order dependencies
 *    encoded once.
 *  - Universe::fork() builds a *fresh* stack from the same configs and
 *    restores every piece of donor state into it via the per-class
 *    cloneStateFrom members. Byte-identity rule: a forked job must
 *    report exactly what a from-scratch populate + run would.
 *  - SnapshotCache keys donors by a caller-built string of everything
 *    that influences populate. It ALWAYS hands out a fork and never
 *    the donor itself, so a job's starting state does not depend on
 *    whether it hit or missed, or on matrix execution order.
 *
 * MITOSIM_SNAPSHOTS=0 disables reuse (every request builds fresh);
 * the cache keeps at most SnapshotCache::Cap live donors and evicts
 * least-recently used — an evicted donor just costs one re-populate
 * later.
 */

#ifndef MITOSIM_SNAPSHOT_SNAPSHOT_H
#define MITOSIM_SNAPSHOT_SNAPSHOT_H

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/core/mitosis.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"
#include "src/workloads/workload.h"

namespace mitosim::snapshot
{

/** Which concrete PV-Ops backend a Universe runs on. */
enum class BackendKind
{
    Native,
    Mitosis,
};

/**
 * One complete simulation stack, owned together so the reference
 * dependencies (kernel on backend on machine) cannot dangle and the
 * whole populated state can be forked as a unit.
 */
class Universe
{
  public:
    Universe(const sim::MachineConfig &machine_cfg, BackendKind kind,
             const core::MitosisConfig &backend_cfg,
             const os::KernelConfig &kernel_cfg);

    /**
     * Fork: construct a fresh Universe from the same machine/backend
     * configs but @p kernel_cfg (a fork may diverge from its donor in
     * any kernel knob that does not act during populate, e.g. THP
     * daemon settings), then deep-copy all populated state across.
     * Requires a captured universe: proc, workload and ctx set.
     */
    std::unique_ptr<Universe>
    fork(const os::KernelConfig &kernel_cfg) const;

    /**
     * End-of-life teardown of the captured process via
     * Kernel::finalizeProcess (skipping the simulated free sweep that
     * nothing can observe). Jobs call this after recording metrics;
     * the destructor calls it for cached donors, so a bench process
     * never pays the multi-GiB teardown at exit either.
     */
    void finalize();

    ~Universe() { finalize(); }

    /** The backend as its concrete Mitosis type (kind == Mitosis). */
    core::MitosisBackend &mitosis();

    sim::Machine machine;

  private:
    BackendKind kind;
    core::MitosisConfig backendCfg;
    std::unique_ptr<pvops::PvOps> backend_;

  public:
    os::Kernel kernel;

    /** The populated process (owned by kernel); set by the builder. */
    os::Process *proc = nullptr;

    /** The workload that populated proc; set by the builder. */
    std::unique_ptr<workloads::Workload> workload;

    /** Execution context driving proc's threads; set by the builder. */
    std::unique_ptr<os::ExecContext> ctx;
};

/**
 * Process-wide donor cache. Thread-safe: bench drivers run jobs on
 * worker threads (--jobs=N), and build/fork both mutate or read large
 * donor state, so the whole operation is serialized per cache.
 */
class SnapshotCache
{
  public:
    /** A builder constructs and populates a donor (cache miss path). */
    using Builder = std::function<std::unique_ptr<Universe>()>;

    /** Live donors kept before least-recently-used eviction. */
    static constexpr std::size_t Cap = 32;

    /** The process-wide instance benches share. */
    static SnapshotCache &instance();

    /** False when MITOSIM_SNAPSHOTS=0 disables checkpoint reuse. */
    static bool enabled();

    /**
     * A universe populated per @p key: with snapshots enabled, build
     * the donor once via @p build and return a fork of it (always a
     * fork — hit and miss paths hand out identical state); disabled,
     * just build fresh. @p kernel_cfg configures the returned
     * universe's kernel (see Universe::fork).
     */
    std::unique_ptr<Universe> populated(const std::string &key,
                                        const os::KernelConfig &kernel_cfg,
                                        const Builder &build);

    /** Drop every donor (tests; also frees the host memory). */
    void clear();

  private:
    void evictIfNeeded();

    std::mutex mu;
    std::map<std::string, std::unique_ptr<Universe>> donors;
    std::list<std::string> lru; //!< front = most recently used
};

} // namespace mitosim::snapshot

#endif // MITOSIM_SNAPSHOT_SNAPSHOT_H
