#include "canneal.h"

namespace mitosim::workloads
{

void
Canneal::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;
    auto region = k.mmap(ctx.process(), prm.footprint, opts);
    elements = region.start;
    numElements = region.length / ElementBytes;

    // The netlist is parsed by worker threads in parallel, so pages are
    // first-touched in a shuffled order — the Figure 1 distribution
    // (86/68/71/75 % remote leaf PTEs across the four sockets).
    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::Shuffled;
    populateRegion(ctx, region.start, region.length, mode);

    rngs.clear();
    for (int t = 0; t < ctx.numThreads(); ++t)
        rngs.push_back(threadRng(t));
}

void
Canneal::genStep(OpSink &sink, int tid)
{
    auto &rng = rngs[static_cast<std::size_t>(tid)];

    // Pick two random elements, evaluate the swap cost by reading some
    // of each one's neighbours, then commit the swap (two writes).
    std::uint64_t a = rng.below(numElements);
    std::uint64_t b = rng.below(numElements);
    VirtAddr va_a = elements + a * ElementBytes;
    VirtAddr va_b = elements + b * ElementBytes;

    sink.access(va_a, false);
    sink.access(va_b, false);
    for (unsigned n = 0; n < NeighbourReads; ++n) {
        std::uint64_t na = rng.below(numElements);
        std::uint64_t nb = rng.below(numElements);
        sink.access(elements + na * ElementBytes, false);
        sink.access(elements + nb * ElementBytes, false);
    }
    sink.access(va_a, true);
    sink.access(va_b, true);
    sink.compute(14); // routing-cost arithmetic
}

} // namespace mitosim::workloads
