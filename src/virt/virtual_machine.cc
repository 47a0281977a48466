#include "virtual_machine.h"

#include "src/base/logging.h"

namespace mitosim::virt
{

VirtualMachine::VirtualMachine(os::Kernel &kernel, const VmConfig &config)
    : k(kernel),
      guestTopo(numa::TopologyConfig{
          .numSockets = kernel.machine().numSockets(),
          .memPerSocket = config.guestMemPerVSocket}),
      guestMem(guestTopo)
{
    proc = &k.createProcess("vm", 0);

    // Pin guest memory: one host region per virtual socket, populated
    // eagerly on the matching host socket. Regions are mapped
    // back-to-back so gPA -> hVA is a single offset.
    for (int v = 0; v < numVSockets(); ++v) {
        k.setDataPolicy(*proc, os::DataPolicy::Fixed, hostSocketOf(v));
        // Intermediate nPT pages follow the vsocket they serve.
        k.setPtPlacement(*proc, pt::PtPlacement::Fixed, hostSocketOf(v));
        auto region = k.mmap(*proc, config.guestMemPerVSocket,
                             os::MmapOptions{.populate = true});
        if (v == 0) {
            regionBase = region.start;
        } else if (region.start !=
                   regionBase + static_cast<std::uint64_t>(v) *
                                    config.guestMemPerVSocket) {
            fatal("VM backing regions are not contiguous");
        }
    }
}

VirtualMachine::~VirtualMachine()
{
    k.destroyProcess(*proc);
}

} // namespace mitosim::virt
