/**
 * @file
 * Per-frame metadata, MitoSim's equivalent of Linux's struct page.
 *
 * The paper stores the replica circular-list pointer in struct page (§5.2,
 * Figure 8) so that a PTE write can find all replicas of a page-table page
 * in O(replicas) without walking any page-table. We do the same: every
 * 4 KB data frame, page-table frame and PT reserve frame has a PageMeta;
 * page-table frames additionally reference their 512-entry table storage
 * (a slot in the owning socket's arena, see PhysicalMemory) and
 * participate in a circular replica list.
 *
 * Two kinds of allocated frame keep their PageMeta pristine Free: the
 * 512 frames of a 2 MB data page, described by one per-block record
 * (PhysicalMemory::largeOwner), and fragmentation fillers, described by
 * the pin bitmap (PhysicalMemory::isFragPinned).
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
    Free,      //!< free, or described outside PageMeta (see above)
    Data,      //!< a 4 KB application data frame (unbacked in the host)
    PageTable, //!< one page of a process page-table (host-backed)
    Reserved,  //!< a per-socket PT page cache frame
};

/** "No table storage" sentinel for PageMeta::tableSlot. */
inline constexpr std::uint32_t NoTableSlot = 0xffffffffu;

/**
 * Metadata for one 4 KB physical frame.
 *
 * Trivially copyable by design: metadata chunks are copied by forks and
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

    bool isPageTable() const { return type == FrameType::PageTable; }
    bool isFree() const { return type == FrameType::Free; }
    bool hasTable() const { return tableSlot != NoTableSlot; }

    bool operator==(const PageMeta &) const = default;
};

static_assert(std::is_trivially_copyable_v<PageMeta>,
              "metadata chunks are copied and scrubbed wholesale");

} // namespace mitosim::mem

#endif // MITOSIM_MEM_PAGE_META_H
