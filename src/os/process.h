/**
 * @file
 * Processes, their address spaces (VMAs) and placement policies.
 *
 * The process owns a pt::RootSet (its CR3 array), an ordered VMA tree,
 * and the data/page-table placement policies the paper's analysis varies
 * (first-touch vs interleave data placement, §3.1; forced page-table
 * sockets, §3.2).
 *
 * The VMA tree is keyed by start address (Linux's maple-tree role):
 * findVma is O(log V), and mmap/munmap/mprotect manipulate exact ranges
 * with Linux-style split/merge — a range op splits partially covered
 * VMAs so the metadata always matches the PTEs, and adjacent non-THP
 * VMAs with identical attributes merge back into one (see
 * Vma::mergeableWith for why THP regions stay separate).
 */

#ifndef MITOSIM_OS_PROCESS_H
#define MITOSIM_OS_PROCESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/pt/operations.h"
#include "src/pt/root_set.h"

namespace mitosim::os
{

/** Data page placement policy (numactl-style). */
enum class DataPolicy
{
    FirstTouch, //!< allocate on the faulting thread's socket (default)
    Interleave, //!< round-robin across sockets by page index
    Fixed,      //!< always a designated socket (§3.2 methodology)
};

/** Protection bits for mmap/mprotect. */
enum ProtFlags : std::uint64_t
{
    ProtRead = 1 << 0,
    ProtWrite = 1 << 1,
};

/** One virtual memory area. */
struct Vma
{
    VirtAddr start = 0;
    VirtAddr end = 0; //!< exclusive
    std::uint64_t prot = ProtRead | ProtWrite;
    bool thpEnabled = false; //!< eligible for transparent 2 MB pages

    bool contains(VirtAddr va) const { return va >= start && va < end; }
    std::uint64_t length() const { return end - start; }

    /**
     * May this VMA merge with adjacent @p o? Attributes must match,
     * and THP VMAs never merge: a merged THP VMA would let a later
     * fault install a 2 MB page spanning the old boundary, silently
     * coupling the two mappings' lifetimes (an munmap of one region
     * would tear down its neighbour's huge page) — behaviour the
     * per-region seed semantics never allowed.
     */
    bool
    mergeableWith(const Vma &o) const
    {
        return prot == o.prot && !thpEnabled && !o.thpEnabled;
    }
};

/**
 * A runnable thread and the core it is assigned to: its owned core
 * under pinning, or the run queue it waits on under the time-sharing
 * scheduler (which moves `core` when it rebalances).
 */
struct Thread
{
    int tid = -1;
    CoreId core = -1;
};

/** A process. */
class Process
{
  public:
    /** VMAs ordered by start address. */
    using VmaMap = std::map<VirtAddr, Vma>;

    Process(ProcId id, std::string name) : pid(id), name_(std::move(name))
    {
    }

    Process &operator=(const Process &) = delete;

    ProcId id() const { return pid; }
    const std::string &name() const { return name_; }

    /// @name Address space
    /// @{
    pt::RootSet &roots() { return roots_; }
    const pt::RootSet &roots() const { return roots_; }

    const VmaMap &vmas() const { return vmas_; }

    /** VMA containing @p va, or nullptr. O(log V). */
    const Vma *
    findVma(VirtAddr va) const
    {
        auto it = vmas_.upper_bound(va);
        if (it == vmas_.begin())
            return nullptr;
        --it;
        return it->second.contains(va) ? &it->second : nullptr;
    }

    Vma *
    findVma(VirtAddr va)
    {
        return const_cast<Vma *>(
            static_cast<const Process *>(this)->findVma(va));
    }

    /** Does any VMA intersect [start, end)? O(log V). */
    bool
    overlapsRange(VirtAddr start, VirtAddr end) const
    {
        auto it = vmas_.lower_bound(start);
        if (it != vmas_.end() && it->second.start < end)
            return true;
        if (it == vmas_.begin())
            return false;
        --it;
        return it->second.end > start;
    }

    /**
     * Insert @p vma (must not overlap an existing VMA), merging with
     * mergeable adjacent VMAs (same attributes, non-THP).
     */
    void
    insertVma(Vma vma)
    {
        auto next = vmas_.lower_bound(vma.start);
        if (next != vmas_.begin()) {
            auto prev = std::prev(next);
            if (prev->second.end == vma.start &&
                prev->second.mergeableWith(vma)) {
                vma.start = prev->second.start;
                vmas_.erase(prev);
            }
        }
        if (next != vmas_.end() && next->second.start == vma.end &&
            next->second.mergeableWith(vma)) {
            vma.end = next->second.end;
            vmas_.erase(next);
        }
        vmas_.emplace(vma.start, vma);
    }

    /**
     * Remove [start, end) from the VMA metadata: fully covered VMAs
     * vanish, partially covered ones are split/trimmed to the exact
     * boundary (what Linux's munmap does to the tree).
     */
    void
    removeVmaRange(VirtAddr start, VirtAddr end)
    {
        auto it = vmas_.upper_bound(start);
        if (it != vmas_.begin())
            --it;
        while (it != vmas_.end() && it->second.start < end) {
            Vma v = it->second;
            if (v.end <= start) {
                ++it;
                continue;
            }
            it = vmas_.erase(it);
            if (v.start < start) {
                Vma left = v;
                left.end = start;
                vmas_.emplace(left.start, left);
            }
            if (v.end > end) {
                Vma right = v;
                right.start = end;
                it = vmas_.emplace(right.start, right).first;
                ++it;
            }
        }
    }

    /**
     * Set @p prot over exactly [start, end): partially covered VMAs are
     * split at the boundary so the metadata matches the rewritten PTEs
     * (the seed only updated fully-contained VMAs, leaving partial
     * overlaps stale). Mergeable adjacent VMAs merge back.
     */
    void
    protectVmaRange(VirtAddr start, VirtAddr end, std::uint64_t prot)
    {
        setVmaRange(
            start, end, [&](const Vma &v) { return v.prot == prot; },
            [&](Vma &v) { v.prot = prot; });
    }

    /**
     * Set THP eligibility over exactly [start, end) — the tree half of
     * madvise(MADV_HUGEPAGE / MADV_NOHUGEPAGE): partially covered VMAs
     * split at the boundary, and newly-non-THP neighbours with matching
     * attributes merge back (THP VMAs never merge, see mergeableWith).
     * The caller must demote any huge page straddling a boundary first
     * (Kernel::madvise does) so no 2 MB mapping ever spans two VMAs.
     */
    void
    adviseThpRange(VirtAddr start, VirtAddr end, bool enable)
    {
        setVmaRange(
            start, end,
            [&](const Vma &v) { return v.thpEnabled == enable; },
            [&](Vma &v) { v.thpEnabled = enable; });
    }

    /** Visit every VMA intersecting [start, end), in address order. */
    template <typename Fn>
    void
    forEachVmaIn(VirtAddr start, VirtAddr end, Fn &&fn) const
    {
        auto it = vmas_.upper_bound(start);
        if (it != vmas_.begin())
            --it;
        for (; it != vmas_.end() && it->second.start < end; ++it) {
            if (it->second.end > start)
                fn(it->second);
        }
    }

    /** Bump-allocated mmap area; 2 MB aligned for THP friendliness. */
    VirtAddr
    reserveRange(std::uint64_t length)
    {
        VirtAddr base = nextMmap;
        nextMmap = alignUp(nextMmap + length, LargePageSize);
        return base;
    }
    /// @}

    /// @name Policies
    /// @{
    DataPolicy dataPolicy = DataPolicy::FirstTouch;
    SocketId dataFixedSocket = 0;
    pt::PtPlacementPolicy ptPolicy;
    bool autoNumaEnabled = false;
    /// @}

    /// @name Scheduling
    /// @{
    std::vector<Thread> &threads() { return threads_; }
    const std::vector<Thread> &threads() const { return threads_; }

    /**
     * Address-space identifier the kernel assigned at creation; tags
     * this process's TLB/PWC entries on time-shared cores. The
     * generation distinguishes successive (or, under ASID pressure,
     * concurrent) owners of the same recycled ASID: a core switching
     * in compares the generation it last observed for the ASID and
     * selectively flushes on mismatch, so an alias can never hit
     * another owner's tagged entries.
     */
    Asid asid = 0;
    std::uint64_t asidGeneration = 0;
    /// @}

    /** Round-robin rotor for interleaved data placement. */
    int interleaveNext = 0;

    /** Cumulative count of pages faulted in (4 KB units). */
    std::uint64_t residentPages = 0;

  private:
    /**
     * Deep copy for Kernel::cloneStateFrom (snapshot forking) only:
     * every member is a value, so the defaulted copy is exact. Kept
     * private so nothing else can duplicate a live address space.
     */
    friend class Kernel;
    Process(const Process &) = default;

    /**
     * Apply @p set to exactly [start, end), splitting partially covered
     * VMAs at the boundary, then merge mergeable neighbours back. A VMA
     * for which @p has already holds is skipped, never split: a THP VMA
     * split for nothing would never merge back.
     */
    template <typename Has, typename Set>
    void
    setVmaRange(VirtAddr start, VirtAddr end, Has &&has, Set &&set)
    {
        auto it = vmas_.upper_bound(start);
        if (it != vmas_.begin())
            --it;
        while (it != vmas_.end() && it->second.start < end) {
            Vma &v = it->second;
            if (v.end <= start || has(v)) {
                ++it;
                continue;
            }
            if (v.start < start) {
                // Split off the uncovered head, then revisit the tail.
                Vma left = v;
                left.end = start;
                Vma right = v;
                right.start = start;
                vmas_.erase(it);
                vmas_.emplace(left.start, left);
                it = vmas_.emplace(right.start, right).first;
                continue;
            }
            if (v.end > end) {
                Vma head = v;
                head.end = end;
                set(head);
                Vma tail = v;
                tail.start = end;
                vmas_.erase(it);
                vmas_.emplace(head.start, head);
                it = vmas_.emplace(tail.start, tail).first;
            } else {
                set(v);
                ++it;
            }
        }
        mergeAdjacent(start, end);
    }

    /** Merge same-attribute neighbours around [from, to]. */
    void
    mergeAdjacent(VirtAddr from, VirtAddr to)
    {
        auto it = vmas_.lower_bound(from);
        if (it != vmas_.begin())
            --it;
        while (it != vmas_.end() && it->second.start <= to) {
            auto next = std::next(it);
            if (next == vmas_.end())
                break;
            if (it->second.end == next->second.start &&
                it->second.mergeableWith(next->second)) {
                it->second.end = next->second.end;
                vmas_.erase(next);
            } else {
                it = next;
            }
        }
    }

    ProcId pid;
    std::string name_;
    pt::RootSet roots_;
    VmaMap vmas_;
    std::vector<Thread> threads_;
    VirtAddr nextMmap = 0x10000000000ull; //!< 1 TiB, clear of nullptr
};

} // namespace mitosim::os

#endif // MITOSIM_OS_PROCESS_H
