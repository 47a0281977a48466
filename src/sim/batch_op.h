/**
 * @file
 * The replay operation record and the two replay-engine gates.
 *
 * Workloads generate short runs of BatchOp into a buffer
 * (Workload::stepBatch) and ExecContext::runBatch replays them. On the
 * pinned path the replay *fuses* maximal runs of consecutive
 * same-page accesses (Core::accessRun): one real TLB probe and one
 * real cache probe per distinct line, with the remainder charged in
 * bulk. Fusion is exact — see accessRun — and MITOSIM_BATCH=0 or
 * MITOSIM_FUSE=0 restores the per-op reference path so CI can diff
 * the two for byte-identical reports.
 */

#ifndef MITOSIM_SIM_BATCH_OP_H
#define MITOSIM_SIM_BATCH_OP_H

#include "src/base/types.h"

namespace mitosim::sim
{

/** One generated workload operation: a memory access or a compute charge. */
struct BatchOp
{
    VirtAddr va = 0;
    Cycles cycles = 0; //!< compute ops: the charged amount
    bool isWrite = false;
    bool isCompute = false;
};

/**
 * Host-side toggle for batched stepping in workloads::runInterleaved.
 * On by default; MITOSIM_BATCH=0 generates one step at a time and
 * makes ExecContext::runBatch replay per op. Replay only:
 * populateRegion always touches per op. Read once from the
 * environment: flipping it mid-run is not a supported mode.
 */
bool batchEnabled();

/** Test-only override of batchEnabled(); see setFuseEnabledForTest. */
void setBatchEnabledForTest(int enabled);

/**
 * Host-side toggle for run fusion inside ExecContext::runBatch. On by
 * default; MITOSIM_FUSE=0 forces the per-op replay loop. Read once
 * from the environment: flipping it mid-run is not a supported mode.
 */
bool fuseEnabled();

/**
 * Test-only override of fuseEnabled(): 0 forces per-op replay, 1
 * re-enables fusion, -1 restores the environment setting. The
 * batched-stepping property test compares both paths in one process;
 * production code never calls this.
 */
void setFuseEnabledForTest(int enabled);

} // namespace mitosim::sim

#endif // MITOSIM_SIM_BATCH_OP_H
