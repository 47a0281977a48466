/**
 * @file
 * khugepaged: the background collapse daemon.
 *
 * Linux's khugepaged keeps a scan cursor per mm and examines a bounded
 * number of pages per wakeup (pages_to_scan), collapsing readily
 * collapsible ranges and resuming where it left off. The reproduction
 * mirrors that: per tick and per process, up to scanRangesPerTick 2 MB
 * candidate ranges are examined from the saved cursor (wrapping once),
 * and at most collapsesPerTick of them are promoted. The scan itself is
 * raw and uncharged — like the AutoNUMA scanner — while every collapse
 * charges its full work (backend PTE re-reads with A/D merge, the 2 MB
 * allocation, the copy, replica-coherent leaf rewrite, frees and one
 * range shootdown) to the daemon.
 */

#include <algorithm>

#include "src/os/kernel.h"
#include "src/os/thp/thp.h"

namespace mitosim::os::thp
{

void
ThpManager::scanProcess(Process &proc, pvops::KernelCost *cost)
{
    const auto &vmas = proc.vmas();
    if (vmas.empty())
        return;
    VirtAddr cursor = scanCursor[proc.id()];
    std::uint64_t scanned = 0;
    unsigned collapsed = 0;

    auto it = vmas.upper_bound(cursor);
    if (it != vmas.begin())
        --it;
    bool wrapped = false;
    VirtAddr from = cursor; // only the first VMA resumes mid-way
    while (true) {
        if (it == vmas.end()) {
            if (wrapped)
                break;
            wrapped = true;
            it = vmas.begin();
            from = 0;
        }
        const Vma &v = it->second;
        // The wrapped pass covers [0, cursor) only — one full scan of
        // the address space per cycle, never a rescan within a tick.
        if (wrapped && v.start >= cursor)
            break;
        if (v.thpEnabled) {
            VirtAddr first =
                alignUp(std::max(v.start, from), LargePageSize);
            VirtAddr stop = v.end;
            if (wrapped)
                stop = std::min(stop, cursor);
            for (VirtAddr base = first; base + LargePageSize <= stop;
                 base += LargePageSize) {
                if (scanned >= cfg.scanRangesPerTick ||
                    collapsed >= cfg.collapsesPerTick) {
                    scanCursor[proc.id()] = base;
                    return;
                }
                ++scanned;
                ++stats_.rangesScanned;
                mRangesScanned->inc();
                if (collapseAt(proc, base, cost))
                    ++collapsed;
            }
        }
        from = 0;
        ++it;
    }
    scanCursor[proc.id()] = 0;
}

} // namespace mitosim::os::thp
