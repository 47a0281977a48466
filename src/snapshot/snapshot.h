/**
 * @file
 * One complete simulation stack, and an exact fork of a populated one.
 *
 * MitoSim state is small and explicit (frame allocators, PageMeta,
 * host-backed page-table pages, caches, TLBs, run queues), which makes
 * a checkpoint an exact deep copy rather than a serialization format:
 *
 *  - Universe owns one complete simulation stack (Machine, PV-Ops
 *    backend, Kernel, the populated Process, the Workload generator
 *    and its ExecContext) with the construction-order dependencies
 *    encoded once. bench::preparePopulated builds every bench job's
 *    universe this way, from scratch.
 *  - Universe::fork() builds a *fresh* stack from the same configs and
 *    restores every piece of donor state into it via the per-class
 *    cloneStateFrom members, copying every materialized page-metadata
 *    and page-table chunk, so the two share no state. Byte-identity
 *    rule: a forked job must report exactly what a from-scratch
 *    populate + run would. The host-cost benchmark times a fork, and
 *    tests/snapshot_test.cc holds forks to the rule; no bench job
 *    forks.
 */

#ifndef MITOSIM_SNAPSHOT_SNAPSHOT_H
#define MITOSIM_SNAPSHOT_SNAPSHOT_H

#include <memory>

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
     * the destructor calls it for a universe nobody finalized, so
     * dropping one never pays the multi-GiB teardown either.
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

} // namespace mitosim::snapshot

#endif // MITOSIM_SNAPSHOT_SNAPSHOT_H
