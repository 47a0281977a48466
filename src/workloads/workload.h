/**
 * @file
 * Workload framework: deterministic access-stream generators standing in
 * for the paper's big-memory applications (Table 1).
 *
 * A workload allocates simulated virtual memory, populates it with a
 * characteristic first-touch pattern, and then generates one "operation"
 * per step — a short dependent chain of loads/stores whose locality
 * structure matches the real application (random 8-byte updates for GUPS,
 * pointer chases for BTree/Redis, streaming sweeps for LibLinear, ...).
 * Each workload defines one generator hook, genStep(); stepBatch()
 * collects steps as BatchOps and ExecContext::runBatch replays them.
 * Footprints are scaled from the paper's 17-480 GB to the simulated
 * machine (see EXPERIMENTS.md "Scaling: 128 MiB footprints against a
 * 64 KiB per-socket L3"), preserving the footprint : TLB-reach : L3
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

    /**
     * Advance thread @p tid by @p nsteps operations, appending their
     * ops to @p out; the caller replays them (runInterleaved hands them
     * to ExecContext::runBatch). Generating ahead of replay is exact
     * because generators never see the simulated machine — they are
     * pure RNG/cursor machines over the state setup() left behind.
     */
    void
    stepBatch(int tid, unsigned nsteps, std::vector<os::BatchOp> &out)
    {
        OpSink sink{out};
        for (unsigned i = 0; i < nsteps; ++i)
            genStep(sink, tid);
    }

    const WorkloadParams &params() const { return prm; }

  protected:
    /** Where genStep() writes: appends each generated op to a buffer. */
    struct OpSink
    {
        std::vector<os::BatchOp> &out;

        void
        access(VirtAddr va, bool is_write)
        {
            out.push_back(os::BatchOp{va, 0, is_write, false});
        }

        void
        compute(Cycles c)
        {
            out.push_back(os::BatchOp{0, c, false, true});
        }
    };

    /** The generator: append one operation of thread @p tid to @p sink. */
    virtual void genStep(OpSink &sink, int tid) = 0;

    /** WorkloadImpl::clone() copies through this. */
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

/** CRTP base that gives each concrete workload its clone(). */
template <class Derived>
class WorkloadImpl : public Workload
{
  public:
    using Workload::Workload;

    std::unique_ptr<Workload>
    clone() const final
    {
        return std::make_unique<Derived>(static_cast<const Derived &>(*this));
    }
};

/** The MITOSIM_BATCH toggle lives in sim/, where runBatch reads it. */
using sim::batchEnabled;
using sim::setBatchEnabledForTest;

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
