/**
 * @file
 * Table 5: kernel-cycle overhead of mmap / mprotect / munmap with 4-way
 * page-table replication vs no replication, for small / medium / large
 * regions (paper: 4 KB, 8 MB, 4 GB; the large region is scaled to
 * 128 MB — the per-page work is identical, only the loop is shorter).
 *
 * Expected shape (paper): mmap ~1.02x (allocation+zeroing dominate),
 * munmap ~1.35x, mprotect ~3.2x (pure PTE read-modify-write loop, so the
 * replica stores dominate; still below the 4x replication factor).
 *
 * Extension jobs (beyond the paper): 512 MB range ops, 4 KB and THP,
 * native vs mitosis vs mitosis-batched. "mitosis-batched" opts into
 * UpdateMode::Batched, where the range-first kernel's batched setPtes
 * charges the replica locate once per leaf table instead of once per
 * PTE — the cheaper cost model that range operations make possible
 * (numaPTE's argument). The default-mode jobs above are unaffected.
 */

#include "bench/harness.h"
#include "src/driver/bench_main.h"
#include "src/pvops/native_backend.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

struct Region
{
    const char *label;
    const char *slug; //!< job-name fragment
    std::uint64_t bytes;
};

constexpr Region Regions[] = {
    {"4KB region", "4KB", 4ull << 10},
    {"8MB region", "8MB", 8ull << 20},
    {"128MB region", "128MB", 128ull << 20}, // paper used 4GB; same shape
};

/// @name Large-range extension jobs
/// @{

constexpr std::uint64_t LargeRegionBytes = 512ull << 20;

enum class LargeBackend
{
    Native,
    Mitosis,
    MitosisBatched,
};

constexpr LargeBackend LargeBackends[] = {
    LargeBackend::Native,
    LargeBackend::Mitosis,
    LargeBackend::MitosisBatched,
};

constexpr const char *
largeBackendName(LargeBackend kind)
{
    switch (kind) {
      case LargeBackend::Native:
        return "native";
      case LargeBackend::Mitosis:
        return "mitosis";
      case LargeBackend::MitosisBatched:
        return "mitosis-batched";
    }
    return "?";
}

constexpr struct
{
    const char *slug;
    bool thp;
} LargePageModes[] = {{"4K", false}, {"THP", true}};

driver::JobResult
measureLarge(bool thp, LargeBackend kind)
{
    sim::Machine machine(benchMachine());
    pvops::NativeBackend native(machine.physmem());
    core::MitosisConfig cfg;
    if (kind == LargeBackend::MitosisBatched)
        cfg.updateMode = core::UpdateMode::Batched;
    core::MitosisBackend mitosis(machine.physmem(), cfg);
    pvops::PvOps &backend =
        kind == LargeBackend::Native
            ? static_cast<pvops::PvOps &>(native)
            : static_cast<pvops::PvOps &>(mitosis);
    os::Kernel kernel(machine, backend);
    os::Process &proc = kernel.createProcess("vma-large", 0);
    if (kind != LargeBackend::Native) {
        mitosis.setReplicationMask(proc.roots(), proc.id(),
                                   SocketMask::all(4));
    }

    // Warm-up as in the small jobs: PT pages for the range pre-exist.
    auto region =
        kernel.mmap(proc, LargeRegionBytes,
                    os::MmapOptions{.populate = true, .thp = thp});
    kernel.munmap(proc, region.start, region.length);

    pvops::KernelCost mmap_cost;
    auto r = kernel.mmapFixed(proc, region.start, LargeRegionBytes,
                              os::MmapOptions{.populate = true,
                                              .thp = thp},
                              &mmap_cost);
    pvops::KernelCost protect_cost;
    kernel.mprotect(proc, r.start, r.length, os::ProtRead,
                    &protect_cost);
    pvops::KernelCost unmap_cost;
    kernel.munmap(proc, r.start, r.length, &unmap_cost);

    driver::JobResult result;
    recordJobStats(kernel, result);
    kernel.finalizeProcess(proc);
    result.value("mmap_cycles", static_cast<double>(mmap_cost.cycles));
    result.value("mprotect_cycles",
                 static_cast<double>(protect_cost.cycles));
    result.value("munmap_cycles",
                 static_cast<double>(unmap_cost.cycles));
    return result;
}

/// @}

driver::JobResult
measure(bool replicated, std::uint64_t region_bytes)
{
    sim::Machine machine(benchMachine());
    core::MitosisBackend backend(machine.physmem());
    os::Kernel kernel(machine, backend);
    os::Process &proc = kernel.createProcess("vma", 0);
    if (replicated) {
        backend.setReplicationMask(proc.roots(), proc.id(),
                                   SocketMask::all(4));
    }

    // Warm-up round so page-table pages for the range exist (as in the
    // paper's repeated-syscall micro-benchmark; Linux also retains PT
    // pages across munmap). Iterations remap the *same* address range.
    auto region = kernel.mmap(proc, region_bytes,
                              os::MmapOptions{.populate = true});
    kernel.munmap(proc, region.start, region.length);

    Cycles mmap_cycles = 0;
    Cycles mprotect_cycles = 0;
    Cycles munmap_cycles = 0;
    constexpr int Iterations = 3;
    for (int i = 0; i < Iterations; ++i) {
        pvops::KernelCost mmap_cost;
        auto r = kernel.mmapFixed(proc, region.start, region_bytes,
                                  os::MmapOptions{.populate = true},
                                  &mmap_cost);
        mmap_cycles += mmap_cost.cycles;

        pvops::KernelCost protect_cost;
        kernel.mprotect(proc, r.start, r.length, os::ProtRead,
                        &protect_cost);
        mprotect_cycles += protect_cost.cycles;

        pvops::KernelCost unmap_cost;
        kernel.munmap(proc, r.start, r.length, &unmap_cost);
        munmap_cycles += unmap_cost.cycles;
    }

    driver::JobResult result;
    recordJobStats(kernel, result);
    kernel.finalizeProcess(proc);
    result.value("mmap_cycles",
                 static_cast<double>(mmap_cycles / Iterations));
    result.value("mprotect_cycles",
                 static_cast<double>(mprotect_cycles / Iterations));
    result.value("munmap_cycles",
                 static_cast<double>(munmap_cycles / Iterations));
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "tab05_vma_ops";
    spec.title = "Table 5: VMA operation overhead, 4-way replication "
                 "(ratio Mitosis-on / Mitosis-off)";
    spec.describe = [](BenchReport &report) {
        describeMachine(report);
        report.config("replicas", 4.0);
    };
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const Region &region : Regions) {
            for (bool replicated : {false, true}) {
                registry.add(format("%s/%s", region.slug,
                                    replicated ? "on" : "off"),
                             [region, replicated] {
                                 return measure(replicated,
                                                region.bytes);
                             });
            }
        }
        // Extension: 512 MB range ops, incl. the batched cost model.
        for (const auto &mode : LargePageModes) {
            for (LargeBackend kind : LargeBackends) {
                registry.add(format("large-512MB-%s/%s", mode.slug,
                                    largeBackendName(kind)),
                             [thp = mode.thp, kind] {
                                 return measureLarge(thp, kind);
                             });
            }
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-12s %-14s %-14s %-14s\n", "Operation",
                    Regions[0].label, Regions[1].label,
                    Regions[2].label);

        constexpr const char *Ops[] = {"mmap", "mprotect", "munmap"};
        double ratios[3][3];
        std::size_t i = 0;
        for (int r = 0; r < 3; ++r) {
            const driver::JobResult &off = results[i++];
            const driver::JobResult &on = results[i++];
            BenchRun &run = report.addRun(Regions[r].label);
            run.tag("region", Regions[r].label)
                .metric("region_bytes",
                        static_cast<double>(Regions[r].bytes));
            for (int op = 0; op < 3; ++op) {
                std::string key = std::string(Ops[op]) + "_cycles";
                ratios[op][r] = on.valueOf(key) / off.valueOf(key);
                run.metric(std::string(Ops[op]) + "_ratio",
                           ratios[op][r]);
            }
            for (int op = 0; op < 3; ++op) {
                std::string key = std::string(Ops[op]) + "_cycles";
                run.metric(key + "_off", off.valueOf(key));
                run.metric(key + "_on", on.valueOf(key));
            }
        }
        for (int op = 0; op < 3; ++op) {
            std::printf("%-12s %-14.3f %-14.3f %-14.3f\n", Ops[op],
                        ratios[op][0], ratios[op][1], ratios[op][2]);
        }
        std::printf("\n(paper: mmap 1.021/1.008/1.006, mprotect "
                    "1.121/3.238/3.279, munmap 1.043/1.354/1.393)\n");

        // Extension table: 512 MB ranges, batched replica updates.
        std::printf("\n512 MB range ops (cycles; ratio vs native)\n");
        std::printf("%-18s %-16s %14s %14s %14s\n", "mode", "backend",
                    "mmap", "mprotect", "munmap");
        for (const auto &mode : LargePageModes) {
            const driver::JobResult *native = nullptr;
            for (LargeBackend kind : LargeBackends) {
                const driver::JobResult &res = results[i++];
                if (kind == LargeBackend::Native)
                    native = &res;
                std::string label =
                    format("large-512MB-%s %s", mode.slug,
                           largeBackendName(kind));
                BenchRun &run = report.addRun(label);
                run.tag("region", "512MB")
                    .tag("page_mode", mode.slug)
                    .tag("backend", largeBackendName(kind))
                    .metric("region_bytes",
                            static_cast<double>(LargeRegionBytes));
                std::printf("%-18s %-16s", mode.slug,
                            largeBackendName(kind));
                for (const char *op : Ops) {
                    std::string key = std::string(op) + "_cycles";
                    double cycles = res.valueOf(key);
                    run.metric(key, cycles);
                    double ratio = cycles / native->valueOf(key);
                    run.metric(std::string(op) + "_vs_native", ratio);
                    std::printf(" %10.0f %-3.2fx", cycles, ratio);
                }
                std::printf("\n");
                if (kind == LargeBackend::MitosisBatched) {
                    report.speedup(
                        format("512MB-%s mprotect mitosis/batched",
                               mode.slug),
                        results[i - 2].valueOf("mprotect_cycles") /
                            res.valueOf("mprotect_cycles"));
                }
            }
        }
        std::printf("\n(batched = UpdateMode::Batched: replica locate "
                    "charged once per leaf table on range ops)\n");
    };
    return driver::benchMain(argc, argv, spec);
}
