/**
 * @file
 * Graph500: BFS over a synthetic Kronecker-style graph (Table 1: 420 GB,
 * multi-socket scenario). The graph is generated by the main rank
 * (first-touch skew towards one socket, §3.1 observation 2); traversal
 * reads edge lists semi-sequentially and pokes the visited map randomly.
 */

#ifndef MITOSIM_WORKLOADS_GRAPH500_H
#define MITOSIM_WORKLOADS_GRAPH500_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** BFS-flavoured edge exploration. */
class Graph500 : public WorkloadImpl<Graph500>
{
  public:
    explicit Graph500(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "graph500"; }
    void setup(os::ExecContext &ctx) override;

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t AvgDegree = 16;
    static constexpr std::uint64_t EdgeBytes = 8;

    VirtAddr edges = 0;
    VirtAddr visited = 0;
    std::uint64_t numVertices = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_GRAPH500_H
