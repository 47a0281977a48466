#include "snapshot.h"

#include "src/base/logging.h"

namespace mitosim::snapshot
{

namespace
{

std::unique_ptr<pvops::PvOps>
makeBackend(BackendKind kind, mem::PhysicalMemory &physmem,
            const core::MitosisConfig &cfg)
{
    switch (kind) {
      case BackendKind::Native:
        return std::make_unique<pvops::NativeBackend>(physmem);
      case BackendKind::Mitosis:
        return std::make_unique<core::MitosisBackend>(physmem, cfg);
    }
    panic("makeBackend: unknown backend kind");
}

} // namespace

Universe::Universe(const sim::MachineConfig &machine_cfg, BackendKind k,
                   const core::MitosisConfig &backend_cfg,
                   const os::KernelConfig &kernel_cfg)
    : machine(machine_cfg), kind(k), backendCfg(backend_cfg),
      backend_(makeBackend(k, machine.physmem(), backend_cfg)),
      kernel(machine, *backend_, kernel_cfg)
{
    if (kind == BackendKind::Mitosis)
        mitosis().attachObs(&machine.metrics(), &machine.tracer());
}

void
Universe::finalize()
{
    if (!proc)
        return;
    kernel.finalizeProcess(*proc);
    proc = nullptr;
}

core::MitosisBackend &
Universe::mitosis()
{
    MITOSIM_ASSERT(kind == BackendKind::Mitosis,
                   "mitosis(): universe runs the native backend");
    return static_cast<core::MitosisBackend &>(*backend_);
}

std::unique_ptr<Universe>
Universe::fork(const os::KernelConfig &kernel_cfg) const
{
    MITOSIM_ASSERT(proc && workload && ctx,
                   "fork: donor universe was never captured");
    auto u = std::make_unique<Universe>(machine.config(), kind, backendCfg,
                                        kernel_cfg);
    u->machine.cloneStateFrom(machine);
    u->kernel.cloneStateFrom(kernel);
    // The native backend is stateless: it only holds the PhysicalMemory
    // reference.
    if (kind == BackendKind::Mitosis)
        u->mitosis().cloneStateFrom(
            static_cast<const core::MitosisBackend &>(*backend_));
    u->proc = u->kernel.findProcess(proc->id());
    MITOSIM_ASSERT(u->proc, "fork: populated process missing in clone");
    u->workload = workload->clone();
    u->ctx = std::make_unique<os::ExecContext>(u->kernel, *u->proc, *ctx);
    return u;
}

} // namespace mitosim::snapshot
