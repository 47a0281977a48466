/**
 * @file
 * Ablation (§5.1): the per-socket page-table reserve cache. Strict
 * page-table allocation on a memory-exhausted socket fails without the
 * reserve and silently spills page-tables to other sockets (re-creating
 * the remote-walk problem); with the sysctl-sized reserve, allocations
 * stay local until the reserve drains.
 */

#include "bench/harness.h"
#include "src/driver/bench_main.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

constexpr std::uint64_t ReserveSizes[] = {0, 16, 64};

driver::JobResult
runWithReserve(std::uint64_t reserve_frames)
{
    sim::MachineConfig mc;
    mc.topo.numSockets = 2;
    mc.topo.coresPerSocket = 1;
    mc.topo.memPerSocket = 32ull << 20;
    sim::Machine machine(mc);
    core::MitosisBackend backend(machine.physmem());
    os::Kernel kernel(machine, backend);
    auto &pm = machine.physmem();

    pm.setPtCacheTarget(0, reserve_frames);

    os::Process &proc = kernel.createProcess("pressure", 0);
    kernel.setDataPolicy(proc, os::DataPolicy::Fixed, 0);
    kernel.setPtPlacement(proc, pt::PtPlacement::Fixed, 0);

    // Fill socket 0 almost completely with data, then keep mapping
    // sparse regions (each needing fresh page-table pages).
    std::uint64_t bulk = pm.freeFrames(0) - 64;
    kernel.mmap(proc, bulk * PageSize, os::MmapOptions{.populate = true});

    for (int i = 0; i < 48; ++i) {
        // Map one untouched page, then one populated page. mmap
        // bump-allocates 2 MB-aligned ranges, so the untouched page
        // only advances the allocator: each populated page lands 4 MB
        // past the last and needs a fresh leaf page-table page.
        kernel.mmap(proc, PageSize, os::MmapOptions{});
        kernel.mmap(proc, PageSize, os::MmapOptions{.populate = true});
    }

    driver::JobResult result;
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    for (int l = 1; l <= 4; ++l) {
        local += pm.ptPagesAt(0, l);
        remote += pm.ptPagesAt(1, l);
    }
    result.value("reserve_frames", static_cast<double>(reserve_frames));
    result.value("local_pt_pages", static_cast<double>(local));
    result.value("remote_pt_pages", static_cast<double>(remote));
    result.value("reserve_hits",
                 static_cast<double>(pm.stats(0).ptCacheHits));
    kernel.finalizeProcess(proc);
    recordJobStats(kernel, result);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "abl_pt_page_cache";
    spec.title = "Ablation: per-socket PT page reserve under memory "
                 "pressure (socket 0 exhausted)";
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (std::uint64_t reserve : ReserveSizes) {
            registry.add("reserve/" + std::to_string(reserve),
                         [reserve] { return runWithReserve(reserve); });
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-16s %10s %10s %12s\n", "reserve(frames)",
                    "local_pt", "remote_pt", "reserve_hits");
        std::size_t i = 0;
        for (std::uint64_t reserve : ReserveSizes) {
            const driver::JobResult &res = results[i++];
            std::printf("%-16llu %10.0f %10.0f %12.0f\n",
                        (unsigned long long)reserve,
                        res.valueOf("local_pt_pages"),
                        res.valueOf("remote_pt_pages"),
                        res.valueOf("reserve_hits"));
            BenchRun &run =
                report.addRun("reserve " + std::to_string(reserve));
            for (const auto &[key, value] : res.values)
                run.metric(key, value);
        }
        std::printf("\n(expected: without a reserve, page-tables spill "
                    "to the remote socket; with it they stay local and "
                    "reserve_hits > 0)\n");
    };
    return driver::benchMain(argc, argv, spec);
}
