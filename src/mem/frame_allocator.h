/**
 * @file
 * Per-socket physical frame allocator.
 *
 * Tracks 4 KB frames inside 2 MB-aligned blocks so it can serve both base
 * pages and contiguous 512-frame large pages (for THP). Fragmentation is
 * first-class: the fragmentation injector pins scattered frames inside
 * otherwise-free blocks, making 2 MB allocations fail exactly the way an
 * aged Linux buddy allocator does (paper §8.2, Figure 11).
 */

#ifndef MITOSIM_MEM_FRAME_ALLOCATOR_H
#define MITOSIM_MEM_FRAME_ALLOCATOR_H

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"

namespace mitosim::mem
{

/** Free-frame bookkeeping for one socket's contiguous PFN range. */
class FrameAllocator
{
  public:
    /**
     * @param first_pfn lowest frame this allocator owns (2 MB aligned)
     * @param num_frames number of frames owned (multiple of 512)
     */
    FrameAllocator(Pfn first_pfn, std::uint64_t num_frames);

    /** Allocate one 4 KB frame; nullopt when the socket is exhausted. */
    std::optional<Pfn> allocFrame();

    /**
     * Allocate 512 contiguous, 2 MB-aligned frames; nullopt when no fully
     * free block exists (exhaustion or fragmentation).
     */
    std::optional<Pfn> allocLargeBlock();

    /** Return one 4 KB frame. Double-free is a panic. */
    void freeFrame(Pfn pfn);

    /** Return a 2 MB block previously obtained from allocLargeBlock(). */
    void freeLargeBlock(Pfn head);

    std::uint64_t freeFrames() const { return freeCount; }
    std::uint64_t totalFrames() const { return numFrames; }
    Pfn firstPfn() const { return basePfn; }

    /** Number of fully-free 2 MB blocks (capacity for THP allocations). */
    std::uint64_t freeLargeBlocks() const;

    /**
     * Fragmentation observability: the fraction of this socket's 2 MB
     * blocks that are fully free, i.e. the remaining allocLargeBlock()
     * capacity (1.0 = pristine, 0.0 = every block broken).
     */
    double largeBlockFreeRatio() const;

    /// @name Targeted relocation (kcompactd support)
    /// @{

    std::uint64_t numBlocks() const { return blocks.size(); }

    /** Allocated-frame count of block @p index (0 = fully free). */
    std::uint32_t blockUsedCount(std::uint64_t index) const;

    /**
     * Visit every allocated pfn of block @p index, ascending: the set
     * bits of each bitmap word, lowest first.
     */
    template <typename Fn>
    void
    forEachAllocatedInBlock(std::uint64_t index, Fn &&fn) const
    {
        const Block &b = blocks[index];
        Pfn first = basePfn + index * framesPerBlock;
        for (unsigned w = 0; w < 8; ++w) {
            for (std::uint64_t bits = b.used[w]; bits != 0; bits &= bits - 1)
                fn(first + w * 64 + static_cast<unsigned>(
                                        std::countr_zero(bits)));
        }
    }

    /**
     * Compaction destination: allocate one frame from the *fullest*
     * partially-used block other than @p avoid's block (lowest index
     * on ties). Never splits a fully-free block — compaction must
     * consume fragmentation, not create it. nullopt when no other
     * partial block has room.
     *
     * O(1) while the cached target (see target_) is valid and is not
     * @p avoid's block; otherwise one scan of the used counts, which
     * re-seeds the cache.
     */
    std::optional<Pfn> allocFrameForCompaction(Pfn avoid);

    /// @}

    bool
    owns(Pfn pfn) const
    {
        return pfn >= basePfn && pfn < basePfn + numFrames;
    }

    bool isAllocated(Pfn pfn) const;

    /**
     * Allocation bits of frames [firstPfn() + 64 * @p w, + 64): bit i
     * is set when frame firstPfn() + 64 * w + i is allocated. Sweeps
     * over every frame read the bitmap a word at a time through here.
     */
    std::uint64_t
    usedWord(std::uint64_t w) const
    {
        return blocks[w >> 3].used[w & 7];
    }

    /**
     * Fragmentation injector: for each fully-free 2 MB block, with
     * probability @p fraction allocate one interior frame and report it.
     * The caller records those frames in its pin bitmap;
     * PhysicalMemory::defragment frees them again.
     *
     * @return the pinned frames.
     */
    std::vector<Pfn> fragment(double fraction, Rng &rng);

  private:
    static constexpr unsigned framesPerBlock = 512;

    /**
     * One cache line of bitmap per block. The per-block allocated
     * count lives in the separate usedCounts vector (struct of
     * arrays): the fullest-partial-block scan behind
     * allocFrameForCompaction reads only the counts, and packing them
     * 16-per-line instead of 1-per-72-byte-struct makes that O(blocks)
     * scan stream instead of stride.
     */
    struct Block
    {
        std::uint64_t used[8] = {0, 0, 0, 0, 0, 0, 0, 0}; // 512-bit bitmap
    };

    std::uint64_t blockOf(Pfn pfn) const { return (pfn - basePfn) / 512; }
    unsigned slotOf(Pfn pfn) const
    {
        return static_cast<unsigned>((pfn - basePfn) % 512);
    }

    bool testSlot(const Block &b, unsigned slot) const;
    void setSlot(std::uint64_t block, unsigned slot);
    void clearSlot(std::uint64_t block, unsigned slot);
    int findFreeSlot(const Block &b) const;

    bool
    isPartial(std::uint64_t block) const
    {
        return usedCounts[block] != 0 && usedCounts[block] < framesPerBlock;
    }

    /** Is partial @p a a better compaction target than @p b (or than
     *  none, when @p b is blocks.size())? Fuller wins, then lower. */
    bool
    fullerThan(std::uint64_t a, std::uint64_t b) const
    {
        return b == blocks.size() || usedCounts[a] > usedCounts[b] ||
               (usedCounts[a] == usedCounts[b] && a < b);
    }

    /** The fullest partial block other than @p avoid, by linear scan;
     *  blocks.size() when there is none. */
    std::uint64_t fullestPartialExcept(std::uint64_t avoid) const;

    /** Partial @p block's count changed: does it now beat target_? */
    void
    retarget(std::uint64_t block)
    {
        if (isPartial(block) && fullerThan(block, target_))
            target_ = block;
    }

    Pfn basePfn;
    std::uint64_t numFrames;
    std::uint64_t freeCount;
    std::vector<Block> blocks;
    std::vector<std::uint32_t> usedCounts; // parallel to blocks

    // Lazily-maintained stacks of candidate block indices. Entries may be
    // stale; pop verifies against the block's actual state.
    std::vector<std::uint32_t> fullyFreeStack;
    std::vector<std::uint32_t> partialStack;

    /**
     * Cached compaction target: the fullest partial block of the whole
     * socket (blocks.size() when none is partial), valid while
     * targetValid_. setSlot/clearSlot keep it current; it goes invalid
     * when the cached block fills or loses a frame, and on
     * allocLargeBlock/freeLargeBlock, which write counts directly.
     * While it is invalid the populate path pays one branch.
     */
    std::uint64_t target_ = 0;
    bool targetValid_ = false;
};

} // namespace mitosim::mem

#endif // MITOSIM_MEM_FRAME_ALLOCATOR_H
