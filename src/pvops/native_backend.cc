#include "native_backend.h"

#include "src/pvops/costs.h"

namespace mitosim::pvops
{

Pfn
allocPtFrame(mem::PhysicalMemory &mem, ProcId owner, int level,
             SocketId hint_socket, KernelCost *cost)
{
    auto pfn = mem.allocPt(hint_socket, level, owner);
    if (!pfn) {
        for (SocketId s = 0; s < mem.topology().numSockets() && !pfn; ++s) {
            if (s != hint_socket)
                pfn = mem.allocPt(s, level, owner);
        }
    }
    if (!pfn)
        return InvalidPfn;
    if (cost) {
        cost->charge(PtPageSetupCost);
        ++cost->ptPagesAllocated;
    }
    return *pfn;
}

Pfn
NativeBackend::allocPtPage(pt::RootSet &roots, ProcId owner, int level,
                           SocketId hint_socket, KernelCost *cost)
{
    (void)roots;
    return allocPtFrame(mem, owner, level, hint_socket, cost);
}

void
NativeBackend::releasePtPage(pt::RootSet &roots, Pfn pfn, KernelCost *cost)
{
    (void)roots;
    mem.freePt(pfn);
    if (cost) {
        cost->charge(PageFreeCost);
        ++cost->ptPagesFreed;
    }
}

void
NativeBackend::setPtes(pt::RootSet &roots, pt::PteLoc loc,
                       const pt::Pte *values, unsigned count, int level,
                       KernelCost *cost)
{
    (void)roots;
    (void)level;
    std::uint64_t *tbl = mem.table(loc.ptPfn) + loc.index;
    for (unsigned k = 0; k < count; ++k)
        tbl[k] = values[k].raw();
    if (cost) {
        cost->charge(PteWriteCost * count);
        cost->pteWrites += count;
    }
}

pt::Pte
NativeBackend::readPteMany(const pt::RootSet &roots, pt::PteLoc loc,
                           unsigned n, KernelCost *cost) const
{
    (void)roots;
    if (cost)
        cost->charge(PteReadCost * n);
    return pt::Pte{mem.tableView(loc.ptPfn)[loc.index]};
}

Pfn
NativeBackend::cr3For(const pt::RootSet &roots, SocketId socket) const
{
    (void)socket;
    return roots.primaryRoot;
}

} // namespace mitosim::pvops
