#include "stream.h"

namespace mitosim::workloads
{

void
Stream::setup(os::ExecContext &ctx)
{
    auto &k = ctx.kernel();
    os::MmapOptions opts;
    opts.thp = prm.thp;
    std::uint64_t third = alignUp(prm.footprint / 3, PageSize);
    auto ra = k.mmap(ctx.process(), third, opts);
    auto rb = k.mmap(ctx.process(), third, opts);
    auto rc = k.mmap(ctx.process(), third, opts);
    a = ra.start;
    b = rb.start;
    c = rc.start;
    words = third / sizeof(std::uint64_t);

    InitMode mode = prm.initModeOverridden ? prm.initMode
                                           : InitMode::Partitioned;
    populateRegion(ctx, a, third, mode);
    populateRegion(ctx, b, third, mode);
    populateRegion(ctx, c, third, mode);

    cursor.assign(static_cast<std::size_t>(ctx.numThreads()), 0);
    // Start each thread in its own partition so sweeps do not overlap.
    for (int t = 0; t < ctx.numThreads(); ++t) {
        cursor[static_cast<std::size_t>(t)] =
            (words / static_cast<std::uint64_t>(ctx.numThreads())) *
            static_cast<std::uint64_t>(t);
    }
}

void
Stream::genStep(OpSink &sink, int tid)
{
    auto &pos = cursor[static_cast<std::size_t>(tid)];
    VirtAddr off = pos * sizeof(std::uint64_t);
    sink.access(b + off, false);
    sink.access(c + off, false);
    sink.access(a + off, true);
    sink.compute(2);
    pos = (pos + 1) % words;
}

} // namespace mitosim::workloads
