#include "frame_allocator.h"

#include "src/base/logging.h"

namespace mitosim::mem
{

FrameAllocator::FrameAllocator(Pfn first_pfn, std::uint64_t num_frames)
    : basePfn(first_pfn), numFrames(num_frames), freeCount(num_frames),
      blocks(num_frames / framesPerBlock),
      usedCounts(num_frames / framesPerBlock, 0)
{
    if (num_frames == 0 || num_frames % framesPerBlock != 0)
        fatal("FrameAllocator size must be a positive multiple of 512");
    fullyFreeStack.reserve(blocks.size());
    // Push in reverse so allocation proceeds from low addresses upward.
    for (std::size_t i = blocks.size(); i-- > 0;)
        fullyFreeStack.push_back(static_cast<std::uint32_t>(i));
}

bool
FrameAllocator::testSlot(const Block &b, unsigned slot) const
{
    return (b.used[slot >> 6] >> (slot & 63)) & 1;
}

void
FrameAllocator::setSlot(std::uint64_t block, unsigned slot)
{
    blocks[block].used[slot >> 6] |= 1ull << (slot & 63);
    ++usedCounts[block];
    if (targetValid_) {
        // A block that fills leaves the partial set; any other block
        // only gained a frame and may overtake the target.
        if (block == target_ && usedCounts[block] == framesPerBlock)
            targetValid_ = false;
        else
            retarget(block);
    }
}

void
FrameAllocator::clearSlot(std::uint64_t block, unsigned slot)
{
    blocks[block].used[slot >> 6] &= ~(1ull << (slot & 63));
    --usedCounts[block];
    if (targetValid_) {
        // The target losing a frame may hand the lead to any block;
        // another block losing one can only overtake it by rejoining
        // the partial set from full.
        if (block == target_)
            targetValid_ = false;
        else
            retarget(block);
    }
}

int
FrameAllocator::findFreeSlot(const Block &b) const
{
    for (unsigned w = 0; w < 8; ++w) {
        std::uint64_t inv = ~b.used[w];
        if (inv)
            return static_cast<int>(w * 64 +
                                    static_cast<unsigned>(
                                        __builtin_ctzll(inv)));
    }
    return -1;
}

std::optional<Pfn>
FrameAllocator::allocFrame()
{
    if (freeCount == 0)
        return std::nullopt;

    // Prefer a partially-used block to keep fully-free blocks intact for
    // large-page allocations (mirrors buddy-allocator behaviour).
    while (!partialStack.empty()) {
        std::uint32_t bi = partialStack.back();
        if (usedCounts[bi] == 0 || usedCounts[bi] >= framesPerBlock) {
            partialStack.pop_back(); // stale entry
            continue;
        }
        int slot = findFreeSlot(blocks[bi]);
        MITOSIM_ASSERT(slot >= 0);
        setSlot(bi, static_cast<unsigned>(slot));
        if (usedCounts[bi] >= framesPerBlock)
            partialStack.pop_back();
        --freeCount;
        return basePfn + bi * 512ull + static_cast<unsigned>(slot);
    }

    // Split a fully-free block.
    while (!fullyFreeStack.empty()) {
        std::uint32_t bi = fullyFreeStack.back();
        if (usedCounts[bi] != 0) {
            fullyFreeStack.pop_back(); // stale entry
            continue;
        }
        fullyFreeStack.pop_back();
        setSlot(bi, 0);
        partialStack.push_back(bi);
        --freeCount;
        return basePfn + bi * 512ull;
    }

    // freeCount > 0 but no block found: stacks were stale; rebuild.
    for (std::size_t i = blocks.size(); i-- > 0;) {
        if (usedCounts[i] == 0)
            fullyFreeStack.push_back(static_cast<std::uint32_t>(i));
        else if (usedCounts[i] < framesPerBlock)
            partialStack.push_back(static_cast<std::uint32_t>(i));
    }
    if (partialStack.empty() && fullyFreeStack.empty())
        return std::nullopt;
    return allocFrame();
}

std::optional<Pfn>
FrameAllocator::allocLargeBlock()
{
    while (!fullyFreeStack.empty()) {
        std::uint32_t bi = fullyFreeStack.back();
        if (usedCounts[bi] != 0) {
            fullyFreeStack.pop_back(); // stale
            continue;
        }
        fullyFreeStack.pop_back();
        for (auto &w : blocks[bi].used)
            w = ~0ull;
        usedCounts[bi] = framesPerBlock;
        freeCount -= framesPerBlock;
        targetValid_ = false;
        return basePfn + bi * 512ull;
    }
    // Rebuild in case frees made blocks fully free without stack entries.
    bool found = false;
    for (std::size_t i = blocks.size(); i-- > 0;) {
        if (usedCounts[i] == 0) {
            fullyFreeStack.push_back(static_cast<std::uint32_t>(i));
            found = true;
        }
    }
    if (!found)
        return std::nullopt;
    return allocLargeBlock();
}

void
FrameAllocator::freeFrame(Pfn pfn)
{
    MITOSIM_ASSERT(owns(pfn), "freeFrame: pfn not owned by this socket");
    std::uint64_t bi = blockOf(pfn);
    unsigned slot = slotOf(pfn);
    if (!testSlot(blocks[bi], slot))
        panic("double free of pfn %llu", (unsigned long long)pfn);
    bool was_full = usedCounts[bi] >= framesPerBlock;
    clearSlot(bi, slot);
    ++freeCount;
    if (usedCounts[bi] == 0)
        fullyFreeStack.push_back(static_cast<std::uint32_t>(bi));
    else if (was_full)
        partialStack.push_back(static_cast<std::uint32_t>(bi));
}

void
FrameAllocator::freeLargeBlock(Pfn head)
{
    MITOSIM_ASSERT(owns(head) && slotOf(head) == 0,
                   "freeLargeBlock: head not 2MB aligned");
    std::uint64_t bi = blockOf(head);
    if (usedCounts[bi] != framesPerBlock)
        panic("freeLargeBlock: block not fully allocated");
    for (auto &w : blocks[bi].used)
        w = 0;
    usedCounts[bi] = 0;
    freeCount += framesPerBlock;
    targetValid_ = false;
    fullyFreeStack.push_back(static_cast<std::uint32_t>(bi));
}

std::uint64_t
FrameAllocator::freeLargeBlocks() const
{
    std::uint64_t n = 0;
    for (std::uint32_t c : usedCounts)
        if (c == 0)
            ++n;
    return n;
}

double
FrameAllocator::largeBlockFreeRatio() const
{
    return blocks.empty()
               ? 0.0
               : static_cast<double>(freeLargeBlocks()) /
                     static_cast<double>(blocks.size());
}

std::uint32_t
FrameAllocator::blockUsedCount(std::uint64_t index) const
{
    MITOSIM_ASSERT(index < blocks.size());
    return usedCounts[index];
}

std::uint64_t
FrameAllocator::fullestPartialExcept(std::uint64_t avoid) const
{
    // The fullest partial block packs relocated frames densest, which
    // is what turns scattered occupancy back into free 2 MB blocks.
    // Strict > keeps the lowest index on ties; avoid/empty/full blocks
    // are skipped.
    std::uint64_t best = blocks.size();
    std::uint32_t best_used = 0;
    for (std::uint64_t i = 0; i < usedCounts.size(); ++i) {
        std::uint32_t used = usedCounts[i];
        if (i == avoid || used == 0 || used >= framesPerBlock)
            continue;
        if (used > best_used) {
            best = i;
            best_used = used;
        }
    }
    return best;
}

std::optional<Pfn>
FrameAllocator::allocFrameForCompaction(Pfn avoid)
{
    MITOSIM_ASSERT(owns(avoid));
    std::uint64_t avoid_block = blockOf(avoid);
    std::uint64_t best;
    if (targetValid_ && target_ != avoid_block) {
        // The socket-wide argmax is not @p avoid's block, so it is
        // also the argmax over every other block.
        best = target_;
        MITOSIM_DASSERT(best == fullestPartialExcept(avoid_block),
                        "allocFrameForCompaction: stale cached target");
    } else {
        best = fullestPartialExcept(avoid_block);
        // Re-seed the cache: the socket-wide argmax is the scan's
        // answer unless the skipped block beats it.
        target_ = best;
        if (isPartial(avoid_block) && fullerThan(avoid_block, best))
            target_ = avoid_block;
        targetValid_ = true;
    }
    if (best == blocks.size())
        return std::nullopt;
    int slot = findFreeSlot(blocks[best]);
    MITOSIM_ASSERT(slot >= 0);
    // A now-full block may leave a stale partialStack entry behind;
    // pops verify against the block's actual state, as everywhere.
    setSlot(best, static_cast<unsigned>(slot));
    --freeCount;
    return basePfn + best * 512ull + static_cast<unsigned>(slot);
}

bool
FrameAllocator::isAllocated(Pfn pfn) const
{
    MITOSIM_ASSERT(owns(pfn));
    return testSlot(blocks[blockOf(pfn)], slotOf(pfn));
}

std::vector<Pfn>
FrameAllocator::fragment(double fraction, Rng &rng)
{
    std::vector<Pfn> pinned;
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        if (usedCounts[bi] != 0)
            continue;
        if (!rng.chance(fraction))
            continue;
        unsigned slot = static_cast<unsigned>(rng.below(framesPerBlock));
        setSlot(bi, slot);
        --freeCount;
        partialStack.push_back(static_cast<std::uint32_t>(bi));
        pinned.push_back(basePfn + bi * 512ull + slot);
    }
    return pinned;
}

} // namespace mitosim::mem
