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
 * Guest physical memory is identity-offset into one large host mapping:
 * hVA = regionBase + gPA. Virtual socket v owns the gPA range
 * [v * guestMemPerVSocket, (v+1) * guestMemPerVSocket), and that range
 * is populated on host socket v at boot (pinned VM memory), so guest
 * NUMA decisions translate 1:1 to host locality — the "underlying NUMA
 * architecture is exposed to the guest OS" premise of §7.4.
 */

#ifndef MITOSIM_VIRT_VIRTUAL_MACHINE_H
#define MITOSIM_VIRT_VIRTUAL_MACHINE_H

#include <cstdint>
#include <vector>

#include "src/os/kernel.h"

namespace mitosim::virt
{

/** Guest-physical frame number / address / virtual address. */
using GuestPfn = std::uint64_t;
using GuestPa = std::uint64_t;
using GuestVa = std::uint64_t;

inline constexpr GuestPfn InvalidGuestPfn = ~0ull;

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

    int numVSockets() const { return vsockets; }

    /** Host socket backing virtual socket @p v (identity mapping). */
    SocketId hostSocketOf(int vsocket) const
    {
        return static_cast<SocketId>(vsocket);
    }

    int
    vsocketOfGuestFrame(GuestPfn gpfn) const
    {
        return static_cast<int>(gpfn / framesPerVs);
    }

    /// @name Guest frame allocation (the guest's buddy allocator)
    /// @{
    GuestPfn allocGuestFrame(int vsocket);
    void freeGuestFrame(GuestPfn gpfn);
    std::uint64_t freeGuestFrames(int vsocket) const;
    /// @}

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
    os::Process *proc;
    int vsockets;
    std::uint64_t framesPerVs;
    VirtAddr regionBase = 0;

    // Per-vsocket bump pointer + free list over guest frames.
    std::vector<GuestPfn> bump;
    std::vector<std::vector<GuestPfn>> freeList;
};

} // namespace mitosim::virt

#endif // MITOSIM_VIRT_VIRTUAL_MACHINE_H
