/**
 * @file
 * One simulated CPU core: TLB, paging-structure cache, current CR3, and
 * the access entry point that drives the whole translation pipeline.
 *
 * Faults discovered by the walker are punted to a fault handler the OS
 * layer registers on the Machine (hardware raises, software services).
 */

#ifndef MITOSIM_SIM_CORE_H
#define MITOSIM_SIM_CORE_H

#include "src/base/types.h"
#include "src/sim/batch_op.h"
#include "src/sim/memory_hierarchy.h"
#include "src/sim/perf_counters.h"
#include "src/sim/walker.h"
#include "src/tlb/paging_structure_cache.h"
#include "src/tlb/tlb.h"

namespace mitosim::sim
{

/** A fault the core delivers to the OS. */
struct FaultRequest
{
    VirtAddr va = 0;
    bool isWrite = false;
    WalkFault kind = WalkFault::None;
};

/**
 * Fault service routine: resolves the fault (mapping the page, clearing
 * the hint, upgrading protection, ...) and returns the kernel cycles
 * spent. Must make forward progress or the core panics after retries.
 *
 * A raw function pointer plus opaque context, not a std::function: the
 * handler sits on the access fast path of every simulated fault, and
 * the type-erased call gate plus its per-call validity re-checks showed
 * up in profiles. Validity is asserted once at registration instead.
 */
using FaultHandler = Cycles (*)(void *ctx, CoreId,
                                const FaultRequest &);

/** A CPU core. */
class Core
{
  public:
    Core(CoreId id, MemoryHierarchy &hierarchy,
         mem::PhysicalMemory &physmem, const tlb::TlbConfig &tlb_cfg,
         const tlb::PwcConfig &pwc_cfg);

    CoreId id() const { return coreId; }
    SocketId socket() const { return socketId; }

    /** The serializing CR3 write itself (pipeline drain). */
    static constexpr Cycles Cr3LoadCost = 150;

    /**
     * Accesses after a CR3 load that count into the post-switch
     * counters (PerfCounters::postSwitch*): the TLB-refill window whose
     * misses are the direct price of the context switch.
     */
    static constexpr std::uint64_t PostSwitchWindow = 256;

    /**
     * Context-switch entry point: load a page-table root tagged with
     * @p asid. With @p preserve_translations false (PCID off, or the
     * OS decided the ASID was recycled) the TLB and PWC are flushed
     * outright; with it true they are kept — entries of other address
     * spaces are hidden by their ASID tags, and this space's survivors
     * hit again. Returns the hardware cost of the CR3 write so the
     * scheduler can charge it to the incoming thread.
     */
    Cycles loadCr3(Pfn root, Asid asid, bool preserve_translations);

    /**
     * Park the core: drop the CR3 (hasContext() goes false) and flush,
     * so a dead process's root can never be walked again.
     */
    void clearContext();

    /** Selective INVPCID: drop @p asid's TLB and PWC entries. */
    void flushAsid(Asid asid);

    /**
     * Snapshot restore: adopt the architectural state of @p src — TLB,
     * PWC, CR3, ASID and the post-switch window counter. Raw field
     * copies on purpose: loadCr3 would flush the translations the
     * donor accumulated. The caller guarantees both cores simulate the
     * same machine shape and core id.
     */
    void
    cloneStateFrom(const Core &src)
    {
        tlb_ = src.tlb_;
        pwc_ = src.pwc_;
        cr3_ = src.cr3_;
        asid_ = src.asid_;
        sinceSwitch_ = src.sinceSwitch_;
    }

    Pfn cr3() const { return cr3_; }
    Asid asid() const { return asid_; }
    bool hasContext() const { return cr3_ != InvalidPfn; }

    /**
     * Execute one load/store to @p va. Drives TLB lookup, page walk,
     * fault servicing and the data-side cache access; charges everything
     * into @p pc and returns the total latency. Defined inline: with
     * the walker and hierarchy also visible in headers, the entire
     * no-fault translation pipeline compiles into one call-free path.
     */
    Cycles
    access(VirtAddr va, bool is_write, PerfCounters &pc)
    {
        tlb::TlbEntry used;
        return accessCaptured(va, is_write, pc, used);
    }

    /**
     * access(), additionally reporting the translation the data access
     * actually used through @p used (post fault servicing). This is
     * what accessRun fuses against; plain access() delegates here and
     * the dead capture store folds away.
     *
     * [[gnu::flatten]] keeps the "one call-free path" promise above:
     * with two callers (access and accessRun) this body exceeds GCC's
     * ordinary inline budget and the walker/TLB/cache calls fall out
     * of line, which costs double-digit percent on the replay loop.
     */
    [[gnu::flatten]] Cycles
    accessCaptured(VirtAddr va, bool is_write, PerfCounters &pc,
                   tlb::TlbEntry &used)
    {
        MITOSIM_DASSERT(hasContext(), "access on a core with no CR3");
        ++pc.accesses;
        bool in_window = sinceSwitch_ < PostSwitchWindow;
        ++sinceSwitch_;

        auto look = tlb_.lookup(va);
        Cycles total = look.latency;
        // A fault may need several service rounds (e.g. NUMA hint then
        // a normal re-walk); bound them to catch livelock bugs.
        int attempt = 0;

        if (look.hit) {
            if (look.hitLevel == 1)
                ++pc.tlbL1Hits;
            else
                ++pc.tlbL2Hits;

            if (!is_write || look.entry.writable) {
                std::uint64_t offset_mask =
                    (look.entry.size == PageSizeKind::Large2M)
                        ? (LargePageSize - 1)
                        : (PageSize - 1);
                PhysAddr pa =
                    pfnToAddr(look.entry.pfn) + (va & offset_mask);
                Cycles dl = hier.access(coreId, pa, is_write,
                                        AccessKind::Data, &pc);
                pc.dataStallCycles += dl;
                total += dl;
                pc.cycles += total;
                used = look.entry;
                return total;
            }

            // Stale or read-only: raise a protection fault.
            tlb_.invalidatePage(va);
            Cycles kc = faultFn_(
                faultCtx_, coreId,
                FaultRequest{va, is_write, WalkFault::Protection});
            pc.kernelCycles += kc;
            total += kc;
            ++attempt;
            total += tlb_.lookupKnownMiss(va);
        }

        // Every retry re-probes a TLB that nothing has filled since the
        // miss (or the invalidation above): the fault handler never
        // inserts translations, so each retry is a known miss.
        for (;;) {
            ++pc.tlbMisses;
            auto out = walker.walk(coreId, cr3_, va, is_write, pwc_, &pc);
            pc.walkCycles += out.latency;
            if (in_window) {
                ++pc.postSwitchTlbMisses;
                pc.postSwitchWalkCycles += out.latency;
            }
            total += out.latency;

            if (out.fault == WalkFault::None) {
                tlb_.insert(va, out.entry);
                std::uint64_t offset_mask =
                    (out.entry.size == PageSizeKind::Large2M)
                        ? (LargePageSize - 1)
                        : (PageSize - 1);
                PhysAddr pa =
                    pfnToAddr(out.entry.pfn) + (va & offset_mask);
                Cycles dl = hier.access(coreId, pa, is_write,
                                        AccessKind::Data, &pc);
                pc.dataStallCycles += dl;
                total += dl;
                pc.cycles += total;
                used = out.entry;
                return total;
            }

            Cycles kc = faultFn_(
                faultCtx_, coreId,
                FaultRequest{va, is_write, out.fault});
            pc.kernelCycles += kc;
            total += kc;
            if (++attempt == 8)
                panic("core %d: unresolved fault at va=0x%llx", coreId,
                      (unsigned long long)va);
            total += tlb_.lookupKnownMiss(va);
        }
    }

    /**
     * Fused replay of the maximal run of ops starting at ops[0], which
     * must be an access (not a compute). Returns how many ops were
     * consumed (>= 1).
     *
     * ops[0] goes through the full accessCaptured() pipeline — TLB
     * probe, walk and fault servicing as needed, real data-side cache
     * access — and yields the translation entry. Each subsequent op on
     * the *same page* is then a guaranteed L1-TLB hit on the entry
     * ops[0] just made MRU (nothing evicts or invalidates mid-run: no
     * daemon, scheduler or fault can interleave — runBatch only calls
     * this pinned, and daemons tick only between replay calls), so the
     * probe is skipped and its effects are charged directly to
     * PerfCounters: the L1-TLB hit and the configured L1 hit latency.
     * Skipping the probe's move to the head of an entry that already
     * is its set's head is exact (src/cache/lru_array.h).
     * The data side fuses the same way per cache line: a repeat of the
     * previous line is a guaranteed L1D hit charged without
     * re-probing; a line change issues a real hierarchy access (which
     * may miss to L3/DRAM and evict). Compute ops inside the run are
     * absorbed as plain cycle charges.
     *
     * The run ends at the first op on a different page — or at a write
     * through a read-only translation, which must take the full
     * protection-fault path; both become ops[0] of the next call.
     */
    [[gnu::flatten]] std::size_t
    accessRun(const BatchOp *ops, std::size_t n, PerfCounters &pc)
    {
        tlb::TlbEntry entry;
        accessCaptured(ops[0].va, ops[0].isWrite, pc, entry);

        const std::uint64_t offset_mask =
            (entry.size == PageSizeKind::Large2M) ? (LargePageSize - 1)
                                                  : (PageSize - 1);
        const VirtAddr page = ops[0].va & ~offset_mask;
        const PhysAddr base = pfnToAddr(entry.pfn);
        const Cycles tlb_lat = tlb_.config().l1HitLatency;
        const Cycles l1d_lat = hier.config().l1dHitLatency;
        PhysAddr prev_line = (base + (ops[0].va & offset_mask)) >>
                             LineShift;

        std::uint64_t fused = 0;
        std::size_t i = 1;
        for (; i < n; ++i) {
            if (ops[i].isCompute) {
                pc.cycles += ops[i].cycles;
                pc.computeCycles += ops[i].cycles;
                continue;
            }
            if ((ops[i].va & ~offset_mask) != page ||
                (ops[i].isWrite && !entry.writable))
                break;

            ++pc.accesses;
            ++sinceSwitch_;
            ++pc.tlbL1Hits;
            ++fused;
            Cycles total = tlb_lat;

            PhysAddr pa = base + (ops[i].va & offset_mask);
            PhysAddr line = pa >> LineShift;
            Cycles dl;
            if (line == prev_line) {
                ++pc.l1dHits;
                dl = l1d_lat;
            } else {
                dl = hier.access(coreId, pa, ops[i].isWrite,
                                 AccessKind::Data, &pc);
                prev_line = line;
            }
            pc.dataStallCycles += dl;
            total += dl;
            pc.cycles += total;
        }

        if (fused) {
            ++fusedRuns_;
            fusedOps_ += fused;
        }
        return i;
    }

    /** Host telemetry: runs that fused at least one repeat. */
    std::uint64_t fusedRuns() const { return fusedRuns_; }
    /** Host telemetry: repeats absorbed by fused runs. */
    std::uint64_t fusedOps() const { return fusedOps_; }

    /**
     * OS hook for fault servicing: bound once by the machine's kernel,
     * unbound (null @p fn) when that kernel dies. Checked here, at the binding,
     * not per fault: a core with no handler must not fault.
     */
    void setFaultHandler(FaultHandler fn, void *ctx)
    {
        MITOSIM_ASSERT(!fn || !faultFn_, "fault handler bound twice");
        faultFn_ = fn;
        faultCtx_ = ctx;
    }

    bool hasFaultHandler() const { return faultFn_ != nullptr; }

    tlb::TwoLevelTlb &tlb() { return tlb_; }
    tlb::PagingStructureCache &pwc() { return pwc_; }

  private:
    CoreId coreId;
    SocketId socketId;
    MemoryHierarchy &hier;
    PageWalker walker;
    tlb::TwoLevelTlb tlb_;
    tlb::PagingStructureCache pwc_;
    Pfn cr3_ = InvalidPfn;
    Asid asid_ = 0;
    std::uint64_t sinceSwitch_ = 0; //!< accesses since the last CR3 load
    FaultHandler faultFn_ = nullptr;
    void *faultCtx_ = nullptr;

    // Host telemetry (never simulated state; not adopted by
    // cloneStateFrom — a fork counts its own fusion work).
    std::uint64_t fusedRuns_ = 0;
    std::uint64_t fusedOps_ = 0;
};

} // namespace mitosim::sim

#endif // MITOSIM_SIM_CORE_H
