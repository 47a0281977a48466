/**
 * @file
 * Ablation (§7.2 library-OS design, implemented): eager vs lazy replica
 * update propagation.
 *
 * Update-heavy phases (populating a large region under 4-way
 * replication) pay 2N references per PTE store with eager propagation;
 * lazy propagation defers the three replica stores into per-socket
 * message queues. The bill comes due on first touch from each remote
 * socket — cheap if remote sockets only ever touch a subset, a wash if
 * they touch everything.
 */

#include "bench/harness.h"

#include "src/core/lazy_backend.h"
#include "src/driver/bench_main.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

driver::JobResult
run(bool lazy)
{
    sim::Machine machine(benchMachine());
    core::MitosisBackend eager_b(machine.physmem());
    core::LazyMitosisBackend lazy_b(machine.physmem());
    os::Kernel kernel(machine,
                      lazy ? static_cast<pvops::PvOps &>(lazy_b)
                           : static_cast<pvops::PvOps &>(eager_b));
    core::MitosisBackend &backend = lazy ? lazy_b : eager_b;

    os::Process &proc = kernel.createProcess("install", 0);
    kernel.mmap(proc, PageSize, os::MmapOptions{.populate = true});
    backend.setReplicationMask(proc.roots(), proc.id(),
                               SocketMask::all(machine.numSockets()));

    // Update-heavy phase: install 16k pages under replication.
    pvops::KernelCost install_cost;
    auto region = kernel.mmap(proc, 64ull << 20,
                              os::MmapOptions{.populate = true},
                              &install_cost);

    // Remote socket touches an eighth of the pages.
    os::ExecContext ctx(kernel, proc);
    int tid = ctx.addThread(1);
    for (VirtAddr va = region.start; va < region.end();
         va += 8 * PageSize)
        ctx.access(tid, va, false);

    driver::JobResult result;
    result.value("install_kcycles",
                 static_cast<double>(install_cost.cycles));
    result.value("first_touch_kcycles",
                 static_cast<double>(
                     ctx.threadCounters(tid).kernelCycles));
    if (lazy)
        result.value("peak_queue_depth",
                     static_cast<double>(
                         lazy_b.lazyStats().maxQueueDepth));
    recordJobStats(kernel, result);
    kernel.finalizeProcess(proc);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "abl_lazy_propagation";
    spec.title = "Ablation: eager (§5.2) vs lazy (§7.2) replica update "
                 "propagation, 4-way replication";
    spec.describe = [](BenchReport &report) { describeMachine(report); };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        registry.add("eager", [] { return run(false); });
        registry.add("lazy", [] { return run(true); });
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        const driver::JobResult &eager = results[0];
        const driver::JobResult &lazy = results[1];
        double eager_install = eager.valueOf("install_kcycles");
        double lazy_install = lazy.valueOf("install_kcycles");

        std::printf("%-24s %16s %16s\n", "", "eager", "lazy");
        std::printf("%-24s %16.0f %16.0f   (%.2fx cheaper installs)\n",
                    "install kcycles", eager_install, lazy_install,
                    eager_install / lazy_install);
        std::printf("%-24s %16.0f %16.0f   (deferred work surfaces "
                    "here)\n",
                    "remote 1st-touch kcycles",
                    eager.valueOf("first_touch_kcycles"),
                    lazy.valueOf("first_touch_kcycles"));
        std::printf("%-24s %16s %16.0f\n", "peak queue depth", "-",
                    lazy.valueOf("peak_queue_depth"));
        std::printf("\n(§7.2: message-based propagation avoids eager "
                    "cross-socket stores; faults process the "
                    "messages)\n");
        report.addRun("eager")
            .tag("mode", "eager")
            .metric("install_kcycles", eager_install)
            .metric("first_touch_kcycles",
                    eager.valueOf("first_touch_kcycles"));
        report.addRun("lazy")
            .tag("mode", "lazy")
            .metric("install_kcycles", lazy_install)
            .metric("first_touch_kcycles",
                    lazy.valueOf("first_touch_kcycles"))
            .metric("peak_queue_depth",
                    lazy.valueOf("peak_queue_depth"));
        report.speedup("install eager/lazy",
                       eager_install / lazy_install);
    };
    return driver::benchMain(argc, argv, spec);
}
