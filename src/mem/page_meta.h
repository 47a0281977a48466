/**
 * @file
 * Per-frame metadata, MitoSim's equivalent of Linux's struct page.
 *
 * The paper stores the replica circular-list pointer in struct page (§5.2,
 * Figure 8) so that a PTE write can find all replicas of a page-table page
 * in O(replicas) without walking any page-table. We do the same: every
 * physical frame has a PageMeta; page-table frames additionally reference
 * their 512-entry table storage (a slot in the owning socket's arena, see
 * PhysicalMemory) and participate in a circular replica list.
 */

#ifndef MITOSIM_MEM_PAGE_META_H
#define MITOSIM_MEM_PAGE_META_H

#include <cstdint>
#include <type_traits>

#include "src/base/types.h"

namespace mitosim::mem
{

/** What a physical frame currently holds. */
enum class FrameType : std::uint8_t
{
    Free,      //!< on a free list
    Data,      //!< application data (unbacked in the host)
    PageTable, //!< one page of a process page-table (host-backed)
    Reserved,  //!< a per-socket PT page cache frame (FrameFlagPtReserve)
};

/**
 * Flags on a frame. Fragmentation-injector fillers carry none: they
 * are allocated frames whose metadata stays Free, marked only in
 * PhysicalMemory's pin bitmap (isFragPinned).
 */
enum FrameFlags : std::uint16_t
{
    FrameFlagNone = 0,
    FrameFlagLargeHead = 1 << 0, //!< first frame of a 2 MB data page
    FrameFlagLargeTail = 1 << 1, //!< interior frame of a 2 MB data page
    FrameFlagPtReserve = 1 << 2, //!< lives in a per-socket PT page cache
};

/** "No table storage" sentinel for PageMeta::tableSlot. */
inline constexpr std::uint32_t NoTableSlot = 0xffffffffu;

/**
 * Metadata for one 4 KB physical frame.
 *
 * Trivially copyable by design: metadata chunks are detached (CoW) and
 * recycled wholesale, and the 512 x u64 table storage of PageTable
 * frames lives in the per-socket slot arenas of PhysicalMemory, not
 * inline here.
 *
 * @invariant type == PageTable  <=>  tableSlot != NoTableSlot
 * @invariant For PageTable frames, replicaNext forms a circular list over
 *            all replicas of the same logical page-table page; an
 *            unreplicated page links to itself.
 */
struct PageMeta
{
    /** Next frame in the circular replica list (self if unreplicated). */
    Pfn replicaNext = InvalidPfn;

    /** Owning process, or -1 for kernel/none. */
    ProcId owner = -1;

    /**
     * PT frames: slot of their 512 x u64 storage in the owning
     * socket's table arena; NoTableSlot otherwise.
     */
    std::uint32_t tableSlot = NoTableSlot;

    FrameType type = FrameType::Free;

    /** Page-table level 1..4 for PageTable frames, 0 otherwise. */
    std::uint8_t level = 0;

    std::uint16_t flags = FrameFlagNone;

    bool isPageTable() const { return type == FrameType::PageTable; }
    bool isFree() const { return type == FrameType::Free; }
    bool hasFlag(FrameFlags f) const { return (flags & f) != 0; }
    bool hasTable() const { return tableSlot != NoTableSlot; }
};

static_assert(std::is_trivially_copyable_v<PageMeta>,
              "metadata chunks are copied and scrubbed wholesale");

} // namespace mitosim::mem

#endif // MITOSIM_MEM_PAGE_META_H
