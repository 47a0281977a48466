/**
 * @file
 * BTree: random index lookups over an implicit complete B-tree, the
 * paper's stand-in for database index probes (Table 1: 145 GB MS /
 * 35 GB WM). Each lookup is a short dependent pointer chase — one node
 * per tree level — whose nodes are scattered across the footprint, so a
 * lookup costs several TLB misses when the tree exceeds TLB reach.
 */

#ifndef MITOSIM_WORKLOADS_BTREE_H
#define MITOSIM_WORKLOADS_BTREE_H

#include <vector>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Random lookups over an implicit B-tree laid out level by level. */
class BTree : public WorkloadImpl<BTree>
{
  public:
    explicit BTree(const WorkloadParams &params) : WorkloadImpl(params) {}

    const char *name() const override { return "btree"; }
    void setup(os::ExecContext &ctx) override;

    int depth() const { return static_cast<int>(levelBase.size()); }

  private:
    void genStep(OpSink &sink, int tid) override;

    static constexpr std::uint64_t NodeBytes = 256; //!< 4 cache lines
    static constexpr std::uint64_t Fanout = 16;

    VirtAddr base = 0;
    std::vector<std::uint64_t> levelBase;  //!< node index of level start
    std::vector<std::uint64_t> levelCount; //!< nodes per level
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_BTREE_H
