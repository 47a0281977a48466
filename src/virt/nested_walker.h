/**
 * @file
 * Two-dimensional (nested) page walks — §7.4's cost model made concrete.
 *
 * A guest memory access on a TLB miss walks the 4-level gPT, but every
 * gPT pointer is a *guest-physical* address that itself needs an nPT
 * walk: up to 4 x 5 + 4 = 24 memory references on x86-64, the figure the
 * paper quotes. A vCPU therefore carries:
 *
 *  - a combined gVA -> hPFN TLB (what hardware TLBs actually hold),
 *  - a nested gPA -> hPFN TLB (the "nTLB" of nested-paging hardware),
 *  - a paging-structure cache for the host dimension.
 *
 * Both dimensions are radix trees on the same engine: the gPT lives in
 * the VM's guest-physical memory, the nPT in host memory, and the walker
 * reads each through its memory's tableView. Replication applies
 * independently per dimension: the guest replicates its gPT across
 * virtual sockets (GuestAddressSpace::setReplicationMask) and the host
 * replicates the nPT, each with its own Mitosis backend; the walker
 * picks the vCPU-local root in each dimension, exactly the design the
 * paper proposes.
 */

#ifndef MITOSIM_VIRT_NESTED_WALKER_H
#define MITOSIM_VIRT_NESTED_WALKER_H

#include "src/sim/machine.h"
#include "src/sim/perf_counters.h"
#include "src/sim/walker.h"
#include "src/tlb/paging_structure_cache.h"
#include "src/tlb/tlb.h"
#include "src/virt/guest_space.h"

namespace mitosim::virt
{

/** One virtual CPU pinned to a host core. */
class VCpu
{
  public:
    /**
     * @param vsocket virtual socket this vCPU belongs to; its host core
     *        is taken from the matching host socket.
     */
    VCpu(VirtualMachine &vm, GuestAddressSpace &gspace, int vsocket,
         CoreId host_core);

    /**
     * One guest load/store. Drives the combined TLB, the 2D walk, guest
     * demand faults, and the data access; charges everything into the
     * vCPU's counters.
     */
    Cycles access(GuestVa gva, bool is_write);

    sim::PerfCounters &counters() { return pc; }
    void resetCounters() { pc = sim::PerfCounters{}; }

    /** Flush vCPU translation state (guest CR3 write). */
    void flushTranslations();

    int vsocket() const { return vs; }

  private:
    /**
     * Translate a guest-physical address via the nPT, charging through
     * the host hierarchy. Returns the host physical address.
     */
    PhysAddr nestedTranslate(GuestPa gpa, bool is_write);

    /** Full 2D walk of @p gva; fills the combined TLB on success. */
    bool walk2D(GuestVa gva, bool is_write, Cycles &latency);

    VirtualMachine &vm;
    GuestAddressSpace &gspace;
    int vs;
    CoreId core;

    tlb::TwoLevelTlb gtlb;  //!< gVA -> hPFN (combined)
    tlb::TwoLevelTlb ntlb;  //!< gPA-page -> hPFN (nested)
    tlb::PagingStructureCache hostPwc; //!< for nPT walks
    sim::PageWalker hostWalker;
    sim::PerfCounters pc;
};

} // namespace mitosim::virt

#endif // MITOSIM_VIRT_NESTED_WALKER_H
