/**
 * @file
 * Fundamental types and constants shared by every MitoSim subsystem.
 *
 * MitoSim models an x86-64 style machine: 4 KB base pages, 2 MB large
 * pages, 4-level radix page-tables with 512 entries per level, 64-byte
 * cache lines. All quantities are expressed in the simulated machine's
 * units; nothing in this header depends on the host.
 */

#ifndef MITOSIM_BASE_TYPES_H
#define MITOSIM_BASE_TYPES_H

#include <cstddef>
#include <cstdint>
#include <limits>

namespace mitosim
{

/** Simulated virtual address. */
using VirtAddr = std::uint64_t;

/** Simulated physical address. */
using PhysAddr = std::uint64_t;

/** Simulated physical frame number (PhysAddr >> PageShift). */
using Pfn = std::uint64_t;

/** Simulated virtual page number (VirtAddr >> PageShift). */
using Vpn = std::uint64_t;

/** Simulated cycle count. */
using Cycles = std::uint64_t;

/** Socket (NUMA node) identifier. */
using SocketId = int;

/** Core identifier, global across sockets. */
using CoreId = int;

/** Process identifier. */
using ProcId = int;

/**
 * Address-space identifier tagging TLB/PWC entries (x86 PCID / Arm
 * ASID). 0 is the boot/global address space; the scheduler hands out
 * 1..4095 and recycles with a generation bump (see os/scheduler.h).
 */
using Asid = std::uint16_t;

/** Sentinel for "no frame". */
inline constexpr Pfn InvalidPfn = std::numeric_limits<Pfn>::max();

/** Sentinel for "no socket". */
inline constexpr SocketId InvalidSocket = -1;

/** Base page: 4 KB. */
inline constexpr unsigned PageShift = 12;
inline constexpr std::uint64_t PageSize = 1ull << PageShift;

/** Large page: 2 MB (512 base pages). */
inline constexpr unsigned LargePageShift = 21;
inline constexpr std::uint64_t LargePageSize = 1ull << LargePageShift;
inline constexpr std::uint64_t FramesPerLargePage =
    LargePageSize / PageSize;

/** Cache line: 64 bytes. */
inline constexpr unsigned LineShift = 6;
inline constexpr std::uint64_t LineSize = 1ull << LineShift;

/** Radix page-table geometry: 512 entries x 8 bytes = one 4 KB page. */
inline constexpr unsigned PtEntriesPerPage = 512;
inline constexpr unsigned PtIndexBits = 9;
inline constexpr unsigned PtLevels = 4;

/** Page-table level names, matching the paper's L4 (root) .. L1 (leaf). */
enum class PtLevel : int
{
    L1 = 1, //!< leaf: PTEs mapping 4 KB pages (or PS entries at L2)
    L2 = 2, //!< page directory; PS bit here maps 2 MB pages
    L3 = 3, //!< page directory pointer table
    L4 = 4, //!< root (PML4); CR3 points at one of these
};

/** Page sizes the simulated MMU understands. */
enum class PageSizeKind
{
    Base4K,
    Large2M,
};

/** Convert a level number (1..4) to PtLevel. */
constexpr PtLevel
ptLevel(int level)
{
    return static_cast<PtLevel>(level);
}

/** Numeric value of a PtLevel (1..4). */
constexpr int
levelNum(PtLevel level)
{
    return static_cast<int>(level);
}

/** Bytes mapped by one entry at the given level (4 KB / 2 MB / 1 GB ...). */
constexpr std::uint64_t
bytesPerEntry(PtLevel level)
{
    return 1ull << (PageShift + PtIndexBits * (levelNum(level) - 1));
}

/** 9-bit page-table index for @p va at @p level. */
constexpr unsigned
ptIndex(VirtAddr va, PtLevel level)
{
    unsigned shift = PageShift + PtIndexBits * (levelNum(level) - 1);
    return static_cast<unsigned>((va >> shift) & (PtEntriesPerPage - 1));
}

constexpr PhysAddr
pfnToAddr(Pfn pfn)
{
    return pfn << PageShift;
}

constexpr Pfn
addrToPfn(PhysAddr pa)
{
    return pa >> PageShift;
}

/** Round @p v down to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Round @p v up to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Kibi/mebi/gibi helpers for readable configuration values. */
constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}
constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}
constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

} // namespace mitosim

#endif // MITOSIM_BASE_TYPES_H
