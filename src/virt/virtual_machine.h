/**
 * @file
 * Virtualization substrate (paper §7.4): a VM whose guest-physical
 * memory is backed, vNUMA-style, by per-virtual-socket host regions.
 *
 * The nested page-table (gPA -> hPA) is simply the host page-table of
 * the VM's backing process — exactly as in hardware nested paging, where
 * the nPT has the same radix format as a process page-table. That means
 * *nested* page-table replication falls out of the existing Mitosis
 * backend: replicate the backing process's tree.
 *
 * Guest-physical memory is an ordinary mem::PhysicalMemory over a
 * topology with one socket per virtual socket, so the guest allocates
 * frames, page-table pages and replica rings with the host's own
 * machinery. Virtual socket v owns the guest frames [v * N, (v+1) * N)
 * for N = guestMemPerVSocket / PageSize. Guest physical memory is
 * identity-offset into one large host mapping, hVA = regionBase + gPA,
 * and vsocket v's range is populated on host socket v at boot (pinned
 * VM memory), so guest NUMA decisions translate 1:1 to host locality —
 * the "underlying NUMA architecture is exposed to the guest OS"
 * premise of §7.4.
 */

#ifndef MITOSIM_VIRT_VIRTUAL_MACHINE_H
#define MITOSIM_VIRT_VIRTUAL_MACHINE_H

#include <cstdint>

#include "src/mem/physical_memory.h"
#include "src/numa/topology.h"
#include "src/os/kernel.h"

namespace mitosim::virt
{

/** Guest-physical address / guest virtual address. */
using GuestPa = std::uint64_t;
using GuestVa = std::uint64_t;

/** VM sizing. */
struct VmConfig
{
    /** Guest memory per virtual socket (one vsocket per host socket). */
    std::uint64_t guestMemPerVSocket = 64ull << 20;
};

/** A virtual machine with vNUMA-pinned, fully populated memory. */
class VirtualMachine
{
  public:
    /**
     * Boot a VM: create the backing host process, mmap and populate one
     * pinned region per virtual socket.
     */
    VirtualMachine(os::Kernel &kernel, const VmConfig &config);
    ~VirtualMachine();

    VirtualMachine(const VirtualMachine &) = delete;
    VirtualMachine &operator=(const VirtualMachine &) = delete;

    int numVSockets() const { return guestTopo.numSockets(); }

    /** Host socket backing virtual socket @p v (identity mapping). */
    SocketId hostSocketOf(int vsocket) const
    {
        return static_cast<SocketId>(vsocket);
    }

    /** Guest-physical memory; its socket v is virtual socket v. */
    mem::PhysicalMemory &memory() { return guestMem; }
    const mem::PhysicalMemory &memory() const { return guestMem; }

    /** Host virtual address backing @p gpa (for nested translation). */
    VirtAddr
    hostVaOf(GuestPa gpa) const
    {
        return regionBase + gpa;
    }

    /** The backing process — its page-table *is* the nPT. */
    os::Process &process() { return *proc; }
    os::Kernel &kernel() { return k; }

  private:
    os::Kernel &k;
    numa::Topology guestTopo;
    mem::PhysicalMemory guestMem;
    os::Process *proc;
    VirtAddr regionBase = 0;
};

} // namespace mitosim::virt

#endif // MITOSIM_VIRT_VIRTUAL_MACHINE_H
