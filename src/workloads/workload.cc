#include "workload.h"

#include <vector>

#include "src/base/logging.h"
#include "src/workloads/btree.h"
#include "src/workloads/canneal.h"
#include "src/workloads/graph500.h"
#include "src/workloads/gups.h"
#include "src/workloads/hashjoin.h"
#include "src/workloads/liblinear.h"
#include "src/workloads/memcached.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/redis.h"
#include "src/workloads/stream.h"
#include "src/workloads/xsbench.h"

namespace mitosim::workloads
{

void
Workload::populateRegion(os::ExecContext &ctx, VirtAddr start,
                         std::uint64_t length, InitMode mode) const
{
    int threads = ctx.numThreads();
    MITOSIM_ASSERT(threads > 0, "populateRegion with no threads");
    std::uint64_t granule = prm.thp ? LargePageSize : PageSize;
    std::uint64_t pages = (length + granule - 1) / granule;

    auto touch_range = [&](int t, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t p = lo; p < hi; ++p)
            ctx.access(t, start + p * granule, true);
    };

    switch (mode) {
      case InitMode::MainThread:
        touch_range(0, 0, pages);
        break;

      case InitMode::Partitioned: {
        std::uint64_t per = (pages + threads - 1) /
                            static_cast<std::uint64_t>(threads);
        for (int t = 0; t < threads; ++t) {
            std::uint64_t lo = per * static_cast<std::uint64_t>(t);
            std::uint64_t hi = std::min(pages, lo + per);
            touch_range(t, lo, hi);
        }
        break;
      }

      case InitMode::Shuffled: {
        // Hash-random assignment of pages to threads: models parallel
        // initialization where adjacent pages are touched by different
        // threads (Memcached-style SETs). The *first* toucher of a page
        // determines both the data frame and, for the first page of each
        // 2 MB PT range, the page-table page socket (§3.1 observation 1).
        Rng rng(prm.seed ^ 0xa5a5a5a5ull);
        for (std::uint64_t p = 0; p < pages; ++p) {
            int t = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(threads)));
            ctx.access(t, start + p * granule, true);
        }
        break;
      }
    }
}

void
runInterleaved(os::ExecContext &ctx, Workload &w,
               std::uint64_t ops_per_thread, unsigned chunk)
{
    int threads = ctx.numThreads();
    MITOSIM_ASSERT(threads > 0, "runInterleaved with no threads");

    // Each thread's chunk is generated into one buffer and replayed by
    // runBatch. With batching off (MITOSIM_BATCH=0) it is generated a
    // step at a time, and runBatch replays it per op.
    const unsigned per_call = batchEnabled() ? chunk : 1;
    std::vector<os::BatchOp> buf;

    std::vector<std::uint64_t> done(static_cast<std::size_t>(threads), 0);
    bool any = true;
    while (any) {
        any = false;
        for (int t = 0; t < threads; ++t) {
            auto &d = done[static_cast<std::size_t>(t)];
            std::uint64_t end = std::min<std::uint64_t>(ops_per_thread,
                                                        d + chunk);
            while (d < end) {
                auto n = static_cast<unsigned>(
                    std::min<std::uint64_t>(per_call, end - d));
                buf.clear();
                w.stepBatch(t, n, buf);
                ctx.runBatch(t, buf.data(), buf.size());
                d += n;
            }
            if (d < ops_per_thread)
                any = true;
        }
    }
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    if (name == "gups")
        return std::make_unique<Gups>(params);
    if (name == "stream")
        return std::make_unique<Stream>(params);
    if (name == "btree")
        return std::make_unique<BTree>(params);
    if (name == "hashjoin")
        return std::make_unique<HashJoin>(params);
    if (name == "memcached")
        return std::make_unique<Memcached>(params);
    if (name == "redis")
        return std::make_unique<Redis>(params);
    if (name == "xsbench")
        return std::make_unique<XsBench>(params);
    if (name == "pagerank")
        return std::make_unique<PageRank>(params);
    if (name == "liblinear")
        return std::make_unique<LibLinear>(params);
    if (name == "canneal")
        return std::make_unique<Canneal>(params);
    if (name == "graph500")
        return std::make_unique<Graph500>(params);
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::string>
workloadNames()
{
    return {"gups",     "stream",   "btree",    "hashjoin",
            "memcached", "redis",    "xsbench",  "pagerank",
            "liblinear", "canneal",  "graph500"};
}

} // namespace mitosim::workloads
