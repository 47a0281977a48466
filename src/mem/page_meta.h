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
 *
 * Layout: 16 bytes per frame — the ring link (4), owner (4), tableSlot
 * (4), type (1) and level (1), padded to 4-byte alignment. The ring
 * link is a 32-bit frame number (Pfn32), not a 64-bit Pfn, which is
 * what keeps a metadata chunk at 64 KiB rather than 96 KiB. It is also
 * why a machine is capped below 2^32 frames (16 TiB): 0xffffffff is the
 * link's "no frame" sentinel, so every real pfn must sit below it, and
 * PhysicalMemory's constructor fatal()s on a larger topology.
 */

#ifndef MITOSIM_MEM_PAGE_META_H
#define MITOSIM_MEM_PAGE_META_H

#include <cstdint>
#include <type_traits>

#include "src/base/logging.h"
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
 * A frame number stored in 4 bytes: converts implicitly to and from
 * Pfn, so code reads and writes it like a Pfn. InvalidPfn is stored as
 * Pfn32::Sentinel and reads back as InvalidPfn; every other storable
 * pfn is below the sentinel (the machine-size cap, see the file
 * comment).
 */
class Pfn32
{
  public:
    static constexpr std::uint32_t Sentinel = 0xffffffffu;

    Pfn32() = default;

    // Truncation maps InvalidPfn onto the sentinel exactly.
    constexpr Pfn32(Pfn pfn) : v_(static_cast<std::uint32_t>(pfn))
    {
        MITOSIM_DASSERT(pfn < Sentinel || pfn == InvalidPfn,
                        "Pfn32: pfn does not fit in 32 bits");
    }

    constexpr operator Pfn() const
    {
        return v_ == Sentinel ? InvalidPfn : v_;
    }

  private:
    std::uint32_t v_ = Sentinel;
};

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
    Pfn32 replicaNext = InvalidPfn;

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
static_assert(sizeof(PageMeta) == 16,
              "16 B per frame: a metadata chunk is 64 KiB");

} // namespace mitosim::mem

#endif // MITOSIM_MEM_PAGE_META_H
