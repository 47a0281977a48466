/**
 * @file
 * vmcheck: whole-machine kernel-invariant checker (CONFIG_DEBUG_VM
 * spirit).
 *
 * An opt-in validation layer that sweeps the entire simulated machine
 * state — every process's page-table replica set, VMA tree, physical
 * frame, core context and TLB/PWC entry — and verifies the invariants
 * the Mitosis replica-update protocol (§4/§5) must preserve by
 * construction:
 *
 *  1. Replica coherence: every per-socket replica tree is structurally
 *     equal to the primary tree modulo socket-local table frames and
 *     hardware-written A/D bits (the walker writes those per-replica;
 *     the OS read path ORs them, §5.4).
 *  2. VMA <-> PTE agreement: every present leaf lies inside a VMA, and
 *     a writable PTE never maps a read-only VMA.
 *  3. Frame accounting: walking every page-table (all replicas) plus
 *     the 2 MB page records, the fragmentation pin bitmap and PT
 *     reserve caches reaches exactly the frames the allocators say are
 *     allocated — no orphans, no double owners, no type confusion.
 *  4. CR3/ASID liveness: every loaded CR3 points into a live process's
 *     replica ring; no TLB/PWC entry carries a dead ASID or references
 *     a freed frame (time-shared mode, where stale tags must be
 *     flushed; the pinned seed legally leaves entries behind on
 *     vacated cores).
 *  5. Charge conservation: the per-socket MemStats counters equal a
 *     full PageMeta and 2 MB record recount, the Reserved frames number
 *     the PT reserve cache size, allocator free+used == total, the Mitosis
 *     backend's replica-page counters match the live replica
 *     population, and the kernel's per-fault-kind cycle buckets sum to
 *     the fault-path total.
 *
 * Checks run at every syscall boundary and THP daemon tick, at the end
 * of a run, and optionally at scheduler dispatch. A violation produces a
 * structured diagnostic (process, VA range, replica socket,
 * expected/actual) and, by default, fails the run via fatal().
 */

#ifndef MITOSIM_CHECK_VMCHECK_H
#define MITOSIM_CHECK_VMCHECK_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace mitosim::os
{
class Kernel;
class Process;
} // namespace mitosim::os

namespace mitosim::check
{

/** The invariant families vmcheck knows how to verify. */
enum class CheckClass
{
    ReplicaCoherence,
    VmaPteAgreement,
    FrameAccounting,
    Cr3AsidLiveness,
    ChargeConservation,
};

const char *checkClassName(CheckClass cls);

/**
 * Knobs (KernelConfig::check); checker off by default. Every checkpoint
 * runs all five check classes.
 */
struct CheckConfig
{
    /** Master switch; nothing below matters while false. */
    bool enabled = false;

    /**
     * Also check at every 64th real context switch (costly). Every
     * mutating VMA syscall and THP daemon period is a checkpoint
     * whenever the checker is enabled.
     */
    bool atDispatch = false;

    /** fatal() on the first violation (tests turn this off to inspect). */
    bool failFast = true;

    /**
     * Apply the MITOSIM_CHECK environment on top of @p base:
     *   MITOSIM_CHECK=1                enable (0 force-disables)
     *   MITOSIM_CHECK_LEVEL=syscall    syscalls + THP ticks (default)
     *                      =dispatch   syscalls + THP ticks + dispatch
     * Any other MITOSIM_CHECK_LEVEL is fatal().
     */
    static CheckConfig fromEnv(CheckConfig base);
};

/** One violated invariant, with enough context to debug it. */
struct Violation
{
    CheckClass cls = CheckClass::ReplicaCoherence;
    ProcId pid = -1;                 //!< offending process, -1 if none
    VirtAddr vaStart = 0;            //!< VA range, 0/0 when not VA-bound
    VirtAddr vaEnd = 0;
    SocketId socket = InvalidSocket; //!< replica / frame socket
    std::string expected;
    std::string actual;
    std::string detail;              //!< free-form context

    /** One-line human-readable rendering. */
    std::string str() const;
};

/** Work counters; surfaced as the per-job check_* report metrics. */
struct CheckStats
{
    std::uint64_t checkpoints = 0;   //!< checkpoint sites that fired
    std::uint64_t checksRun = 0;     //!< individual class sweeps
    std::uint64_t violations = 0;    //!< total violations recorded
    std::uint64_t replicaTablesCompared = 0;
    std::uint64_t leavesChecked = 0;
    std::uint64_t framesAccounted = 0;
};

/** Fault-path cycle buckets for the conservation check (class 5). */
enum class FaultCharge
{
    Demand = 0,   //!< WalkFault::NotPresent -> faultIn
    NumaHint,     //!< WalkFault::NumaHint -> AutoNuma
    Upgrade,      //!< WalkFault::Protection -> PTE write upgrade
    LazyDrain,    //!< onTranslationFault absorbed the fault
    NumKinds,
};

/**
 * The checker. One per Kernel, owned by it when CheckConfig::enabled;
 * tests and benches may also construct one directly against a kernel
 * and invoke individual checks.
 */
class Checker
{
  public:
    Checker(os::Kernel &kernel, const CheckConfig &config);

    const CheckConfig &config() const { return cfg; }

    /// @name Checkpoint entry points (atDispatch is gated and sampled)
    /// @{
    void atSyscall(const char *what);
    void atThpTick();
    void atDispatch();
    void atEndOfRun();
    /// @}

    /**
     * Run every check class once. @p where tags diagnostics. Returns
     * violations found *by this sweep*.
     */
    std::size_t runAll(const char *where);

    /// @name Individual invariant sweeps
    /// @{
    void checkReplicaCoherence();
    void checkVmaPteAgreement();
    void checkFrameAccounting();
    void checkCr3AsidLiveness();
    void checkChargeConservation();
    /// @}

    const std::vector<Violation> &violations() const { return found; }
    void clearViolations() { found.clear(); }
    const CheckStats &stats() const { return stats_; }

    /// @name Fault-path charge ledger (fed by Kernel::handleFault)
    /// @{

    /** Accumulate @p cycles into the bucket of @p kind (per case). */
    void noteFaultCharge(FaultCharge kind, Cycles cycles);

    /** Accumulate @p cycles into the grand total (once per fault). */
    void noteFaultTotal(Cycles cycles);
    /// @}

    /**
     * Snapshot restore: adopt the accumulated ledger of @p src —
     * violations, stats, dispatch count and fault-charge buckets — so
     * a forked kernel reports exactly what a from-scratch populate
     * would have. Both checkers must share one CheckConfig.
     */
    void
    cloneStateFrom(const Checker &src)
    {
        found = src.found;
        stats_ = src.stats_;
        where_ = src.where_;
        dispatchCount = src.dispatchCount;
        for (int i = 0; i < static_cast<int>(FaultCharge::NumKinds); ++i)
            faultBuckets[i] = src.faultBuckets[i];
        faultTotal = src.faultTotal;
    }

  private:
    void report(Violation v);

    /** Lockstep descent of one (primary, replica) table pair. */
    void compareTables(os::Process &proc, SocketId socket, Pfn primary,
                       Pfn replica, int level, VirtAddr base,
                       bool lazy_pending);

    /** atDispatch checks every Nth real context switch. */
    static constexpr unsigned DispatchEveryN = 64;

    os::Kernel &k;
    CheckConfig cfg;
    std::vector<Violation> found;
    CheckStats stats_;
    const char *where_ = "";
    std::uint64_t dispatchCount = 0;

    Cycles faultBuckets[static_cast<int>(FaultCharge::NumKinds)] = {};
    Cycles faultTotal = 0;
};

} // namespace mitosim::check

#endif // MITOSIM_CHECK_VMCHECK_H
