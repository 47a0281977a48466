/**
 * @file
 * x86-64-style page-table entry as a value type.
 *
 * Bit layout follows the architecture: P/W/U low bits, Accessed (5) and
 * Dirty (6) set by the hardware walker, PS (7) marking a 2 MB leaf at L2,
 * frame number in bits 12..51. Bit 9 (one of the software-available bits)
 * carries the AutoNUMA hint, mirroring how Linux repurposes PROT_NONE for
 * NUMA-balancing faults.
 */

#ifndef MITOSIM_PT_PTE_H
#define MITOSIM_PT_PTE_H

#include <cstdint>

#include "src/base/types.h"

namespace mitosim::pt
{

/** PTE flag bits. */
enum PteFlags : std::uint64_t
{
    PtePresent = 1ull << 0,
    PteWrite = 1ull << 1,
    PteUser = 1ull << 2,
    PteAccessed = 1ull << 5,
    PteDirty = 1ull << 6,
    PteHuge = 1ull << 7, //!< PS: this L2 entry maps a 2 MB page
    PteNumaHint = 1ull << 9, //!< software: AutoNUMA sampling hint
};

/** Mask of the frame-number field (bits 12..51). */
inline constexpr std::uint64_t PtePfnMask = 0x000ffffffffff000ull;

/** Mask of the two hardware-written bits. */
inline constexpr std::uint64_t PteAdMask = PteAccessed | PteDirty;

/** A single page-table entry. */
class Pte
{
  public:
    constexpr Pte() = default;
    constexpr explicit Pte(std::uint64_t raw) : bits(raw) {}

    /** Build an entry mapping @p pfn with @p flags. */
    static constexpr Pte
    make(Pfn pfn, std::uint64_t flags)
    {
        return Pte{((pfn << PageShift) & PtePfnMask) | flags};
    }

    constexpr std::uint64_t raw() const { return bits; }

    constexpr bool present() const { return bits & PtePresent; }
    constexpr bool writable() const { return bits & PteWrite; }
    constexpr bool accessed() const { return bits & PteAccessed; }
    constexpr bool dirty() const { return bits & PteDirty; }
    constexpr bool huge() const { return bits & PteHuge; }
    constexpr bool numaHint() const { return bits & PteNumaHint; }

    constexpr Pfn pfn() const { return (bits & PtePfnMask) >> PageShift; }

    constexpr Pte
    withFlags(std::uint64_t set, std::uint64_t clear = 0) const
    {
        return Pte{(bits & ~clear) | set};
    }

    constexpr Pte withPfn(Pfn pfn) const
    {
        return Pte{(bits & ~PtePfnMask) | ((pfn << PageShift) & PtePfnMask)};
    }

    constexpr bool operator==(const Pte &o) const = default;

  private:
    std::uint64_t bits = 0;
};

/** Physical location of one PTE: containing PT frame + entry index. */
struct PteLoc
{
    Pfn ptPfn = InvalidPfn;
    unsigned index = 0;

    bool operator==(const PteLoc &o) const = default;
};

} // namespace mitosim::pt

#endif // MITOSIM_PT_PTE_H
