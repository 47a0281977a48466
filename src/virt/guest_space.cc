#include "guest_space.h"

#include "src/base/logging.h"
#include "src/pvops/costs.h"

namespace mitosim::virt
{

GuestAddressSpace::GuestAddressSpace(VirtualMachine &vm)
    : vm_(vm), backend_(vm.memory()), ops(vm.memory(), backend_)
{
    // The root fits unless every vsocket is full: the backend falls
    // back across vsockets.
    bool created = ops.createRoot(roots_, GuestPid, 0, nullptr);
    MITOSIM_ASSERT(created, "gPT root allocation failed");
}

bool
GuestAddressSpace::setReplicationMask(SocketMask mask,
                                      pvops::KernelCost *cost)
{
    return backend_.setReplicationMask(roots_, GuestPid, mask, cost);
}

std::optional<Cycles>
GuestAddressSpace::handleGuestFault(GuestVa gva, int vsocket)
{
    pvops::KernelCost cost;
    cost.charge(pvops::FaultFixedCost);
    auto data = vm_.memory().allocData(vsocket, GuestPid);
    if (!data)
        return std::nullopt;
    cost.charge(pvops::PageAllocCost + pvops::PageZeroCost);
    if (!ops.map4K(roots_, GuestPid, alignDown(gva, PageSize), *data,
                   pt::PteWrite, ptPolicy, vsocket, &cost)) {
        vm_.memory().freeData(*data);
        return std::nullopt;
    }
    return cost.cycles;
}

pt::Pte
GuestAddressSpace::walk(GuestVa gva, int vsocket) const
{
    Pfn table = roots_.rootFor(vsocket);
    for (int level = 4;; --level) {
        pt::Pte entry{
            vm_.memory().tableView(table)[ptIndex(gva, ptLevel(level))]};
        if (!entry.present() || level == 1)
            return entry;
        table = entry.pfn();
    }
}

} // namespace mitosim::virt
