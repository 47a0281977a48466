/**
 * @file
 * Guest-side virtual memory: the gVA -> gPA page-table (gPT), stored in
 * guest-physical frames, with optional guest-level Mitosis replication
 * across virtual sockets — the first dimension of §7.4's proposal to
 * "replicate both guest page-tables and nested page-tables
 * independently".
 *
 * The gPT runs on the same engine as every host page-table: stores go
 * through pt::PageTableOps and a guest core::MitosisBackend over the
 * VM's guest-physical memory. gPT pages are placed first-touch on the
 * faulting vCPU's virtual socket, and replication is the backend's
 * replication mask over vsockets, so every vsocket walks vsocket-local
 * guest frames — which the VM's vNUMA pinning turns into host-local
 * memory.
 */

#ifndef MITOSIM_VIRT_GUEST_SPACE_H
#define MITOSIM_VIRT_GUEST_SPACE_H

#include <optional>

#include "src/core/mitosis.h"
#include "src/pt/operations.h"
#include "src/pt/pte.h"
#include "src/pt/root_set.h"
#include "src/virt/virtual_machine.h"

namespace mitosim::virt
{

/** The guest kernel's address-space manager (one guest process). */
class GuestAddressSpace
{
  public:
    explicit GuestAddressSpace(VirtualMachine &vm);

    /** The gPT's CR3 array: rootFor(v) is what vsocket v's vCPUs load. */
    const pt::RootSet &roots() const { return roots_; }

    /**
     * The guest's numa_set_pgtable_replication_mask(): replicate the
     * gPT onto every vsocket in @p mask, or tear replicas down for an
     * empty mask.
     */
    bool setReplicationMask(SocketMask mask,
                            pvops::KernelCost *cost = nullptr);

    /**
     * Demand-fault @p gva from a vCPU on @p vsocket, as the host demand
     * fault does: allocate a data frame on the vsocket (guest first
     * touch), then map it, allocating gPT pages as needed.
     *
     * @return kernel cycles spent, or nullopt when guest memory is
     *         exhausted (nothing is mapped then).
     */
    std::optional<Cycles> handleGuestFault(GuestVa gva, int vsocket);

    /**
     * Software walk from @p vsocket's root (no timing): the leaf gPTE
     * of @p gva, not present if unmapped.
     */
    pt::Pte walk(GuestVa gva, int vsocket) const;

    const core::MitosisBackend &backend() const { return backend_; }

  private:
    /** Owner id of the guest's page-table and data frames. */
    static constexpr ProcId GuestPid = 1;

    VirtualMachine &vm_;
    core::MitosisBackend backend_;
    pt::PageTableOps ops;
    pt::RootSet roots_;
    pt::PtPlacementPolicy ptPolicy; //!< first touch
};

} // namespace mitosim::virt

#endif // MITOSIM_VIRT_GUEST_SPACE_H
