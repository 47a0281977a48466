/**
 * @file
 * PageRank over a synthetic power-law graph (GAP-style, Table 1: 69 GB,
 * WM scenario). Per step one vertex is processed: its edge list is read
 * sequentially, the neighbours' ranks are gathered randomly, and the new
 * rank is written — a sequential/random mix typical of graph analytics.
 */

#ifndef MITOSIM_WORKLOADS_PAGERANK_H
#define MITOSIM_WORKLOADS_PAGERANK_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Pull-style PageRank iteration stream. */
class PageRank : public WorkloadImpl<PageRank>
{
  public:
    explicit PageRank(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "pagerank"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t AvgDegree = 16;
    static constexpr std::uint64_t EdgeBytes = 8;
    static constexpr std::uint64_t RankBytes = 8;

    VirtAddr edges = 0;
    VirtAddr ranks = 0;
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    std::vector<std::uint64_t> cursor; //!< per-thread vertex position
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_PAGERANK_H
