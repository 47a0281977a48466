/**
 * @file
 * Workload framework: deterministic access-stream generators standing in
 * for the paper's big-memory applications (Table 1).
 *
 * A workload allocates simulated virtual memory, populates it with a
 * characteristic first-touch pattern, and then emits one "operation" per
 * step() call — a short dependent chain of loads/stores whose locality
 * structure matches the real application (random 8-byte updates for GUPS,
 * pointer chases for BTree/Redis, streaming sweeps for LibLinear, ...).
 * Footprints are scaled from the paper's 17-480 GB to the simulated
 * machine (see DESIGN.md), preserving the footprint : TLB-reach : L3
 * ratios that drive the paper's results.
 */

#ifndef MITOSIM_WORKLOADS_WORKLOAD_H
#define MITOSIM_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/os/exec_context.h"

namespace mitosim::workloads
{

/** How setup() first-touches memory (determines PT/data placement). */
enum class InitMode
{
    MainThread,  //!< thread 0 touches everything (Graph500-style skew)
    Partitioned, //!< thread t touches its contiguous partition
    Shuffled,    //!< threads touch pages in hash-random order (Memcached)
};

/** Common knobs for all workloads. */
struct WorkloadParams
{
    std::uint64_t footprint = 256ull << 20; //!< total data footprint
    std::uint64_t seed = 42;
    bool thp = false;                       //!< back memory with 2 MB pages
    InitMode initMode = InitMode::Partitioned;
    bool initModeOverridden = false; //!< set to keep workload default
};

namespace detail
{

/** step() sink: issue each generated op directly against the context. */
struct CtxSink
{
    os::ExecContext &ctx;
    int tid;

    void
    access(VirtAddr va, bool is_write)
    {
        ctx.access(tid, va, is_write);
    }

    void compute(Cycles c) { ctx.compute(tid, c); }
};

/** stepBatch() sink: defer generated ops into a BatchOp buffer. */
struct BufSink
{
    std::vector<os::BatchOp> &out;

    void
    access(VirtAddr va, bool is_write)
    {
        out.push_back(os::BatchOp{va, 0, is_write, false});
    }

    void compute(Cycles c) { out.push_back(os::BatchOp{0, c, false, true}); }
};

} // namespace detail

/** Base class for all workloads. */
class Workload
{
  public:
    explicit Workload(const WorkloadParams &params) : prm(params) {}
    virtual ~Workload() = default;

    Workload &operator=(const Workload &) = delete;

    virtual const char *name() const = 0;

    /**
     * Deep copy (same dynamic type, same post-setup state: region
     * addresses, per-thread RNG streams, cursors). The populate
     * snapshot cache forks workloads with this right after setup() so
     * every forked run replays the donor's exact access stream.
     */
    virtual std::unique_ptr<Workload> clone() const = 0;

    /**
     * Allocate and populate memory. Threads must already be attached to
     * @p ctx; placement follows the process's data/PT policies.
     */
    virtual void setup(os::ExecContext &ctx) = 0;

    /** Execute one operation on logical thread @p tid. */
    virtual void step(os::ExecContext &ctx, int tid) = 0;

    /**
     * Batched stepping: advance thread @p tid by @p nsteps operations,
     * appending the ops each step() would have issued to @p out instead
     * of executing them (the caller replays the run through
     * ExecContext::runBatch). Identical to @p nsteps step() calls by
     * construction: both entry points run the same generator body
     * through a different sink (detail::CtxSink vs detail::BufSink).
     * Deferred replay is legal because generators never consume the
     * simulated access latency — they are pure RNG/cursor machines.
     * @return false if this workload has no batched generator; the
     * caller must then fall back to per-op step().
     */
    virtual bool
    stepBatch(int tid, unsigned nsteps, std::vector<os::BatchOp> &out)
    {
        (void)tid;
        (void)nsteps;
        (void)out;
        return false;
    }

    /** Reasonable per-thread operation count for benches. */
    virtual std::uint64_t defaultOps() const { return 100000; }

    const WorkloadParams &params() const { return prm; }

  protected:
    /** Subclass clone() implementations copy through this. */
    Workload(const Workload &) = default;

    /** Per-thread deterministic RNG. */
    Rng
    threadRng(int tid) const
    {
        return Rng(prm.seed * 0x9e3779b97f4a7c15ull +
                   static_cast<std::uint64_t>(tid) + 1);
    }

    /**
     * First-touch @p region according to @p mode, issuing real accesses
     * (and hence demand faults) from the owning threads' cores.
     */
    void populateRegion(os::ExecContext &ctx, VirtAddr start,
                        std::uint64_t length, InitMode mode) const;

    WorkloadParams prm;
};

/**
 * Host-side toggle for batched replay in runInterleaved (generate a
 * short run of ops with Workload::stepBatch, replay through
 * ExecContext::runBatch). On by default; MITOSIM_BATCH=0 forces the
 * per-op reference loop so CI can diff the two for byte-identical
 * reports. Replay only: populateRegion always touches per op. Read
 * once from the environment: flipping it mid-run is not a supported
 * mode.
 */
bool batchEnabled();

/**
 * Test-only override of batchEnabled(): 0 forces the per-op reference
 * path, 1 forces the batched path, -1 restores the environment
 * setting. The batched-stepping property test compares both paths in
 * one process; production code never calls this.
 */
void setBatchEnabledForTest(int enabled);

/**
 * Run @p ops_per_thread operations per thread, interleaved round-robin in
 * chunks so same-socket threads share cache state realistically.
 */
void runInterleaved(os::ExecContext &ctx, Workload &w,
                    std::uint64_t ops_per_thread, unsigned chunk = 32);

/** Factory: construct a workload by lower-case name ("gups", ...). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &params);

/** All registered workload names. */
std::vector<std::string> workloadNames();

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_WORKLOAD_H
