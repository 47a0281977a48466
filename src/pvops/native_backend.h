/**
 * @file
 * The native PV-Ops backend: no replication, direct PTE stores.
 *
 * Matches stock Linux behaviour: page-table pages are allocated on the
 * hint socket (first touch), writes go to the single copy, CR3 is the
 * primary root for every socket, and process migration leaves page-tables
 * behind (the paper's §3.2 problem statement).
 */

#ifndef MITOSIM_PVOPS_NATIVE_BACKEND_H
#define MITOSIM_PVOPS_NATIVE_BACKEND_H

#include "src/mem/physical_memory.h"
#include "src/pvops/pvops.h"

namespace mitosim::pvops
{

/**
 * One level-@p level page-table page for @p owner: on @p hint_socket,
 * else on the first other socket with room (Linux's fallback under
 * node pressure), charged the page setup. The native backend's pages
 * and the Mitosis backend's primary copies come from here.
 *
 * @return the page, or InvalidPfn when every socket is full.
 */
Pfn allocPtFrame(mem::PhysicalMemory &mem, ProcId owner, int level,
                 SocketId hint_socket, KernelCost *cost);

/** Stock, replication-free backend. */
class NativeBackend : public PvOps
{
  public:
    explicit NativeBackend(mem::PhysicalMemory &physmem) : mem(physmem) {}

    Pfn allocPtPage(pt::RootSet &roots, ProcId owner, int level,
                    SocketId hint_socket, KernelCost *cost) override;

    void releasePtPage(pt::RootSet &roots, Pfn pfn,
                       KernelCost *cost) override;

    /** Streamed stores into one table; charges stay per-entry. */
    void setPtes(pt::RootSet &roots, pt::PteLoc loc, const pt::Pte *values,
                 unsigned count, int level, KernelCost *cost) override;

    /** One host read, n-fold charge (no replicas to merge). */
    pt::Pte readPteMany(const pt::RootSet &roots, pt::PteLoc loc,
                        unsigned n, KernelCost *cost) const override;

    Pfn cr3For(const pt::RootSet &roots, SocketId socket) const override;

    const char *name() const override { return "native"; }

  private:
    mem::PhysicalMemory &mem;
};

} // namespace mitosim::pvops

#endif // MITOSIM_PVOPS_NATIVE_BACKEND_H
