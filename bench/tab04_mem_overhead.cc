/**
 * @file
 * Table 4: memory-footprint overhead of page-table replication for
 * compact address spaces of 1 MB .. 16 TB with 1..16 replicas, relative
 * to the single-page-table baseline. Purely analytical (the paper's own
 * model), cross-checked against a live simulated process at the small
 * end.
 */

#include "bench/harness.h"
#include "src/driver/bench_main.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

constexpr int ReplicaCounts[] = {1, 2, 4, 8, 16};

struct Row
{
    const char *label;
    std::uint64_t footprint;
};

constexpr Row AnalyticalRows[] = {
    {"1 MB", 1ull << 20},
    {"1 GB", 1ull << 30},
    {"1 TB", 1ull << 40},
    {"16 TB", 16ull << 40},
};

/** The analytical model for one footprint row (cheap, still a job). */
driver::JobResult
analyticalJob(const Row &row)
{
    driver::JobResult result;
    result.value("footprint_bytes", static_cast<double>(row.footprint));
    result.value("pt_bytes", static_cast<double>(
                                 analysis::pageTableBytes(row.footprint)));
    for (int r : ReplicaCounts) {
        result.value("overhead_x" + std::to_string(r),
                     analysis::replicationMemOverhead(row.footprint, r));
    }
    return result;
}

/** Live cross-check: a simulated 64 MiB process, 4-way replicated. */
driver::JobResult
liveCrossCheckJob()
{
    sim::Machine machine(benchMachine());
    core::MitosisBackend backend(machine.physmem());
    os::Kernel kernel(machine, backend);
    os::Process &proc = kernel.createProcess("check", 0);
    kernel.mmap(proc, 64ull << 20, os::MmapOptions{.populate = true});

    auto pt_pages = [&]() {
        std::uint64_t n = 0;
        for (SocketId s = 0; s < machine.numSockets(); ++s)
            for (int l = 1; l <= 4; ++l)
                n += machine.physmem().ptPagesAt(s, l);
        return n;
    };
    std::uint64_t before = pt_pages();
    backend.setReplicationMask(proc.roots(), proc.id(),
                               SocketMask::all(4));
    std::uint64_t after = pt_pages();
    double measured = 1.0 + static_cast<double>((after - before) *
                                                PageSize) /
                                static_cast<double>((64ull << 20) +
                                                    before * PageSize);
    driver::JobResult result;
    result.value("pt_pages_before", static_cast<double>(before));
    result.value("pt_pages_after", static_cast<double>(after));
    result.value("measured_overhead", measured);
    result.value("model_overhead",
                 analysis::replicationMemOverhead(64ull << 20, 4));
    recordCheckStats(kernel, result);
    kernel.finalizeProcess(proc);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "tab04_mem_overhead";
    spec.title = "Table 4: memory overhead of replication "
                 "(multiplier vs 1 replica)";
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (const Row &row : AnalyticalRows) {
            registry.add(std::string("model/") + row.label,
                         [row] { return analyticalJob(row); });
        }
        registry.add("live/64MiB-x4", liveCrossCheckJob);
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-8s %-10s", "Footprnt", "PT size");
        for (int r : ReplicaCounts)
            std::printf(" %8d", r);
        std::printf("\n");

        std::size_t i = 0;
        for (const Row &row : AnalyticalRows) {
            const driver::JobResult &res = results[i++];
            std::printf("%-8s %7.2f MB", row.label,
                        res.valueOf("pt_bytes") / (1024.0 * 1024.0));
            BenchRun &run = report.addRun(row.label);
            run.tag("footprint", row.label);
            for (const auto &[key, value] : res.values)
                run.metric(key, value);
            for (int r : ReplicaCounts)
                std::printf(" %8.3f",
                            res.valueOf("overhead_x" +
                                        std::to_string(r)));
            std::printf("\n");
        }
        std::printf("\n(paper row for 1 GB: 1.0 / 1.002 / 1.006 / "
                    "1.014 / 1.029; 1 MB row: up to 1.231)\n");

        printTitle(
            "Cross-check: live simulated process, 64 MiB, 4 replicas");
        const driver::JobResult &live = results[i++];
        std::printf("PT pages: %.0f -> %.0f; measured overhead %.4f "
                    "(model: %.4f)\n",
                    live.valueOf("pt_pages_before"),
                    live.valueOf("pt_pages_after"),
                    live.valueOf("measured_overhead"),
                    live.valueOf("model_overhead"));
        BenchRun &run = report.addRun("live cross-check 64 MiB x4");
        run.tag("kind", "live");
        for (const auto &[key, value] : live.values)
            run.metric(key, value);
    };
    return driver::benchMain(argc, argv, spec);
}
