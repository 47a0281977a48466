/**
 * @file
 * The hardware page-table walker.
 *
 * On a TLB miss the walker descends the radix tree starting from the
 * deepest paging-structure-cache hit, issuing one memory reference per
 * level through the cache hierarchy — this is where NUMA placement of
 * page-table pages turns into cycles. It also sets Accessed/Dirty bits
 * *directly in the replica it walks*, bypassing PV-Ops, exactly like
 * real hardware (the behaviour that forces Mitosis to OR A/D bits across
 * replicas when the OS reads them, §5.4).
 */

#ifndef MITOSIM_SIM_WALKER_H
#define MITOSIM_SIM_WALKER_H

#include "src/base/logging.h"
#include "src/mem/physical_memory.h"
#include "src/pt/pte.h"
#include "src/sim/memory_hierarchy.h"
#include "src/sim/perf_counters.h"
#include "src/tlb/paging_structure_cache.h"
#include "src/tlb/tlb.h"

namespace mitosim::sim
{

/** Why a walk could not produce a translation. */
enum class WalkFault
{
    None,
    NotPresent, //!< demand-paging fault
    NumaHint,   //!< AutoNUMA sampling fault (leaf had the hint bit)
    Protection, //!< write to a read-only mapping
};

/** Everything a walk produces. */
struct WalkOutcome
{
    WalkFault fault = WalkFault::None;
    tlb::TlbEntry entry;  //!< valid when fault == None
    Cycles latency = 0;   //!< cycles the walker was active
    unsigned memRefs = 0; //!< PT references issued
};

/** One walker per core (state lives in the PWC owned by the core). */
class PageWalker
{
  public:
    PageWalker(mem::PhysicalMemory &physmem, MemoryHierarchy &hierarchy)
        : mem(physmem), hier(hierarchy)
    {
    }

    /**
     * Walk @p va under root @p cr3 on behalf of @p core.
     *
     * Defined inline: this is the single hottest function of the whole
     * simulator (every TLB miss lands here), and keeping the body
     * visible to Core::access lets the compiler fold the per-level loop
     * into the access path instead of a cross-TU call.
     *
     * @param pwc the core's paging-structure cache (probed and filled)
     * @param is_write whether the faulting access is a store (Dirty bit)
     * @param pc counters to update (may be null)
     */
    WalkOutcome
    walk(CoreId core, Pfn cr3, VirtAddr va, bool is_write,
         tlb::PagingStructureCache &pwc, PerfCounters *pc)
    {
        WalkOutcome out;
        MITOSIM_DASSERT(cr3 != InvalidPfn, "walk with no CR3 loaded");
        // Read PTEs through tableView: table() is for stores, and the
        // mutable slot is fetched only when the A/D store below
        // actually happens.
        const mem::PhysicalMemory &cmem = mem;
        const numa::Topology &topo = hier.topology();
        const SocketId here = topo.socketOfCore(core);

        auto probe = pwc.lookup(cr3, va);
        Pfn table = probe.tablePfn;
        int level = probe.startLevel;

        while (true) {
            unsigned idx = ptIndex(va, ptLevel(level));
            PhysAddr pte_addr =
                pfnToAddr(table) + idx * sizeof(std::uint64_t);
            // Attribution bucket for every cycle this level charges:
            // which level, and was the PT page remote to the core.
            const int remote = topo.socketOfPfn(table) != here;
            Cycles ref = hier.access(core, pte_addr, false,
                                     AccessKind::PageTable, pc);
            out.latency += ref;
            if (pc)
                pc->walkCyclesAttr[level - 1][remote] += ref;
            ++out.memRefs;

            pt::Pte entry{cmem.tableView(table)[idx]};

            if (!entry.present()) {
                out.fault = entry.numaHint() ? WalkFault::NumaHint
                                             : WalkFault::NotPresent;
                return out;
            }

            bool is_leaf = (level == 1) || (level == 2 && entry.huge());

            if (is_leaf && entry.numaHint()) {
                // AutoNUMA sampling: treated like a (soft) fault.
                out.fault = WalkFault::NumaHint;
                return out;
            }
            if (is_leaf && is_write && !entry.writable()) {
                out.fault = WalkFault::Protection;
                return out;
            }

            // Hardware sets Accessed on every level it traverses and
            // Dirty on the leaf of a store — *directly*, not via PV-Ops
            // (§5.4).
            std::uint64_t want = pt::PteAccessed;
            if (is_leaf && is_write)
                want |= pt::PteDirty;
            if ((entry.raw() & want) != want) {
                mem.table(table)[idx] = entry.raw() | want;
                // The read brought the line in; the A/D store is a hit.
                out.latency += 1;
                if (pc)
                    pc->walkCyclesAttr[level - 1][remote] += 1;
            }

            if (is_leaf) {
                out.entry.pfn = entry.pfn();
                out.entry.writable = entry.writable();
                out.entry.size = (level == 2) ? PageSizeKind::Large2M
                                              : PageSizeKind::Base4K;
                if (pc) {
                    ++pc->walks;
                    pc->walkMemRefs += out.memRefs;
                }
                return out;
            }

            // Descend; cache the pointer we just resolved.
            pwc.fill(cr3, va, level - 1, entry.pfn());
            table = entry.pfn();
            --level;
        }
    }

  private:
    mem::PhysicalMemory &mem;
    MemoryHierarchy &hier;
};

} // namespace mitosim::sim

#endif // MITOSIM_SIM_WALKER_H
