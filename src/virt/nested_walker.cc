#include "nested_walker.h"

#include "src/base/logging.h"

namespace mitosim::virt
{

VCpu::VCpu(VirtualMachine &vm_ref, GuestAddressSpace &gspace_ref,
           int vsocket, CoreId host_core)
    : vm(vm_ref), gspace(gspace_ref), vs(vsocket), core(host_core),
      hostWalker(vm.kernel().machine().physmem(),
                 vm.kernel().machine().hierarchy())
{
    MITOSIM_ASSERT(
        vm.kernel().machine().topology().socketOfCore(host_core) ==
            vm.hostSocketOf(vsocket),
        "vCPU host core must live on the vsocket's host socket");
}

void
VCpu::flushTranslations()
{
    gtlb.flushAll();
    ntlb.flushAll();
    hostPwc.flushAll();
}

PhysAddr
VCpu::nestedTranslate(GuestPa gpa, bool is_write)
{
    VirtAddr hva = vm.hostVaOf(gpa);

    auto look = ntlb.lookup(hva);
    if (look.hit) {
        return pfnToAddr(look.entry.pfn) + (hva & (PageSize - 1));
    }

    // Walk the nPT: the backing process's page-table, using the root for
    // *this vCPU's host socket* — this is where nPT replication pays.
    Pfn ncr3 = vm.kernel().backend().cr3For(vm.process().roots(),
                                            vm.hostSocketOf(vs));
    auto out = hostWalker.walk(core, ncr3, hva, is_write, hostPwc, &pc);
    if (out.fault != sim::WalkFault::None)
        panic("nPT walk faulted: VM memory must be fully populated");
    pc.walkCycles += out.latency;
    ntlb.insert(hva, out.entry);
    return pfnToAddr(out.entry.pfn) + (hva & (PageSize - 1));
}

bool
VCpu::walk2D(GuestVa gva, bool is_write, Cycles &latency)
{
    auto &hier = vm.kernel().machine().hierarchy();
    Pfn gpt = gspace.roots().rootFor(vs);

    for (int level = 4; level >= 1; --level) {
        unsigned idx = ptIndex(gva, ptLevel(level));
        // The gPT entry lives at a guest-physical address: nested
        // translation first, then the actual memory reference.
        GuestPa entry_gpa = (gpt << PageShift) + idx * 8;
        Cycles before = pc.walkCycles;
        PhysAddr entry_hpa = nestedTranslate(entry_gpa, false);
        latency += pc.walkCycles - before; // nested walk cycles

        Cycles ref = hier.access(core, entry_hpa, false,
                                 sim::AccessKind::PageTable, &pc);
        latency += ref;
        pc.walkCycles += ref;
        // Attribute the gPT reference like the host walker does its
        // own levels: which radix level, and whether the (nested-
        // translated) gPT page is remote to the walking core.
        const auto &topo = vm.kernel().machine().topology();
        pc.walkCyclesAttr[level - 1]
                         [topo.socketOfPfn(addrToPfn(entry_hpa)) !=
                          topo.socketOfCore(core)] += ref;
        ++pc.walkMemRefs;

        pt::Pte entry{vm.memory().tableView(gpt)[idx]};
        if (!entry.present())
            return false; // guest fault

        if (level == 1) {
            // Combined translation: gVA page -> host frame of the data.
            Cycles before_data = pc.walkCycles;
            PhysAddr data_hpa =
                nestedTranslate(entry.pfn() << PageShift, is_write);
            latency += pc.walkCycles - before_data;
            tlb::TlbEntry combined;
            combined.pfn = addrToPfn(data_hpa);
            combined.writable = entry.writable();
            combined.size = PageSizeKind::Base4K;
            gtlb.insert(gva, combined);
            return true;
        }
        gpt = entry.pfn();
    }
    return false;
}

Cycles
VCpu::access(GuestVa gva, bool is_write)
{
    ++pc.accesses;
    auto &hier = vm.kernel().machine().hierarchy();
    Cycles total = 0;

    for (int attempt = 0; attempt < 4; ++attempt) {
        auto look = gtlb.lookup(gva);
        total += look.latency;

        if (look.hit) {
            if (look.hitLevel == 1)
                ++pc.tlbL1Hits;
            else
                ++pc.tlbL2Hits;
            PhysAddr pa =
                pfnToAddr(look.entry.pfn) + (gva & (PageSize - 1));
            Cycles dl = hier.access(core, pa, is_write,
                                    sim::AccessKind::Data, &pc);
            pc.dataStallCycles += dl;
            total += dl;
            pc.cycles += total;
            return total;
        }

        ++pc.tlbMisses;
        Cycles walk_latency = 0;
        if (walk2D(gva, is_write, walk_latency)) {
            ++pc.walks;
            total += walk_latency;
            auto refill = gtlb.lookup(gva);
            MITOSIM_ASSERT(refill.hit, "combined TLB refill failed");
            PhysAddr pa =
                pfnToAddr(refill.entry.pfn) + (gva & (PageSize - 1));
            Cycles dl = hier.access(core, pa, is_write,
                                    sim::AccessKind::Data, &pc);
            pc.dataStallCycles += dl;
            total += dl;
            pc.cycles += total;
            return total;
        }

        // Guest demand fault: the guest kernel maps the page, then the
        // access retries.
        total += walk_latency;
        ++pc.pageFaults;
        auto kc = gspace.handleGuestFault(gva, vs);
        if (!kc)
            break; // guest out of memory
        pc.kernelCycles += *kc;
        total += *kc;
    }
    panic("vCPU: unresolved guest fault at gva=0x%llx",
          (unsigned long long)gva);
}

} // namespace mitosim::virt
