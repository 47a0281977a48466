/**
 * @file
 * Socket-homed simulated physical memory.
 *
 * Combines the NUMA topology, one FrameAllocator per socket, the PageMeta
 * array, the per-socket page-table reserve caches (paper §5.1: "we
 * implemented per-socket page-caches to reserve pages for page-table
 * allocations", sized via sysctl), the per-block records of 2 MB data
 * pages and the fragmentation pin bitmap.
 *
 * Data frames are *unbacked*: the simulator never stores data bytes, only
 * placement. Page-table frames are host-backed (512 x u64) because the
 * radix trees must really exist for replication to be semantic.
 */

#ifndef MITOSIM_MEM_PHYSICAL_MEMORY_H
#define MITOSIM_MEM_PHYSICAL_MEMORY_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/page_meta.h"
#include "src/numa/topology.h"

namespace mitosim::mem
{

/** Allocation / liveness statistics, queryable per socket. */
struct MemStats
{
    std::uint64_t dataPages = 0;      //!< live 4 KB data frames
    std::uint64_t dataLargePages = 0; //!< live 2 MB data pages
    std::uint64_t ptPages = 0;        //!< live page-table frames
    std::uint64_t ptAllocs = 0;       //!< cumulative PT allocations
    std::uint64_t ptCacheHits = 0;    //!< PT allocs served from reserve
    std::uint64_t ptAllocFailures = 0;
};

/**
 * Host-side telemetry of the process-wide slab pools backing metadata
 * chunks and page-table storage (never part of simulated results).
 */
struct SlabPoolStats
{
    std::uint64_t metaSlabs = 0;     //!< 4 MiB metadata slabs minted
    std::uint64_t metaRecycles = 0;  //!< metadata chunks scrubbed + reused
    std::uint64_t tableSlabs = 0;    //!< 2 MiB table slabs minted
    std::uint64_t tableRecycles = 0; //!< table chunks scrubbed + reused
};

SlabPoolStats slabPoolStats();

/** Per-instance table-arena telemetry (host-side, see wall_ms). */
struct TableArenaStats
{
    std::uint64_t chunks = 0;       //!< arena chunks materialized
    std::uint64_t slotRecycles = 0; //!< slots served from free lists
    std::uint64_t liveSlots = 0;    //!< slots currently allocated
};

/**
 * Chunked storage with one owner per chunk: a vector of
 * ChunkElems-element chunks of T, each materialized on first mutable
 * touch. Copying a ChunkStore copies every materialized chunk at once
 * and leaves the others unmaterialized, so two stores never share a
 * chunk.
 *
 * Chunks come from a process-wide slab pool per element type, minted
 * SlabChunks at a time; a released chunk is scrubbed back to T{} and
 * reused, so a fresh chunk always reads as value-initialized.
 */
template <typename T, std::size_t ChunkElems, std::size_t SlabChunks>
class ChunkStore
{
  public:
    ChunkStore() = default;
    explicit ChunkStore(std::size_t n) : chunks_(n) {}

    ChunkStore(const ChunkStore &o) : chunks_(o.chunks_.size())
    {
        for (std::size_t c = 0; c < chunks_.size(); ++c)
            if (const T *src = o.view(c))
                std::copy_n(src, ChunkElems, mut(c));
    }

    ChunkStore &
    operator=(const ChunkStore &o)
    {
        *this = ChunkStore(o);
        return *this;
    }

    ChunkStore(ChunkStore &&) = default;
    ChunkStore &operator=(ChunkStore &&) = default;

    std::size_t size() const { return chunks_.size(); }
    void resize(std::size_t n) { chunks_.resize(n); }

    /** Chunk @p c read-only; null if never materialized. */
    const T *view(std::size_t c) const { return chunks_[c].get(); }

    /** Chunk @p c writable: materialized first if untouched. */
    T *
    mut(std::size_t c)
    {
        Ptr &chunk = chunks_[c];
        if (!chunk) [[unlikely]]
            materialize(chunk);
        return chunk.get();
    }

    /** Number of materialized chunks. */
    std::size_t
    materialized() const
    {
        return static_cast<std::size_t>(
            std::count_if(chunks_.begin(), chunks_.end(),
                          [](const Ptr &chunk) { return chunk != nullptr; }));
    }

  private:
    /** Scrubs a chunk back to T{} and parks it in the pool. */
    struct Release
    {
        void operator()(T *chunk) const;
    };
    using Ptr = std::unique_ptr<T[], Release>;

    /** Point the null @p chunk at a pooled chunk that reads as T{}. */
    static void materialize(Ptr &chunk);

    std::vector<Ptr> chunks_;
};

/** All simulated physical memory of the machine. */
class PhysicalMemory
{
  public:
    explicit PhysicalMemory(const numa::Topology &topology);

    const numa::Topology &topology() const { return topo; }

    /// @name Data frames
    /// @{

    /** Strictly allocate a 4 KB data frame on @p socket. */
    std::optional<Pfn> allocData(SocketId socket, ProcId owner);

    /**
     * Allocate a 4 KB data frame, preferring @p preferred but falling back
     * to other sockets in nearest-first order (Linux's default behaviour
     * when a node is exhausted).
     */
    std::optional<Pfn> allocDataAny(SocketId preferred, ProcId owner);

    /**
     * Strictly allocate a 2 MB data page on @p socket for @p owner
     * (not -1). Its one record is the block's largeOwner entry; no
     * PageMeta is written, so the block's 512 frames keep reading as
     * pristine Free.
     */
    std::optional<Pfn> allocDataLarge(SocketId socket, ProcId owner);

    void freeData(Pfn pfn);
    void freeDataLarge(Pfn head);

    /** Move a data frame to @p target socket; returns the new pfn. */
    std::optional<Pfn> migrateData(Pfn pfn, SocketId target);

    /// @}
    /// @name THP lifecycle support (collapse / split / compaction)
    /// @{

    /**
     * Demote a live 2 MB data page into 512 individually-freeable 4 KB
     * data frames (same pfns, same socket, same owner): the block's
     * record is cleared, each frame gets its own Data PageMeta (the
     * one place a huge page's frames are written), and the per-socket
     * accounting moves from dataLargePages to dataPages. The frame
     * allocator's bitmap needs no change — the block stays fully
     * allocated, it just becomes per-frame reclaimable.
     */
    void splitLargeData(Pfn head);

    /**
     * kcompactd: relocate one 4 KB data frame into another partial
     * block on the *same* socket (never splitting a free block),
     * freeing its slot so nearly-empty blocks can drain back to fully
     * free. Returns the new pfn; the caller rewrites the PTE.
     */
    std::optional<Pfn> compactData(Pfn pfn);

    /**
     * kcompactd: relocate one fragmentation-injector filler frame
     * (modelled as movable kernel memory) the same way. @p pfn must be
     * a filler (isFragPinned). Its pin bit moves to the destination
     * frame, so defragment() frees the filler there; neither frame's
     * metadata is written.
     */
    bool compactReservedPin(Pfn pfn);

    /**
     * Is @p pfn a fragmentation-injector filler? One test of the pin
     * bitmap: fillers are allocated frames whose metadata stays Free.
     */
    bool
    isFragPinned(Pfn pfn) const
    {
        return (pinWord(pfn) >> (pfn & 63)) & 1;
    }

    /**
     * Pin bits of the 64-frame word holding @p pfn: bit i stands for
     * frame (pfn & ~63) + i. Zero on a machine that never fragmented.
     */
    std::uint64_t
    pinWord(Pfn pfn) const
    {
        std::size_t w = pfn >> 6;
        return w < fragPins_.size() ? fragPins_[w] : 0;
    }

    /**
     * Owner of the live 2 MB data page whose block holds @p pfn, or -1
     * when the block holds none: one read of the per-block records,
     * which stay empty until the first allocDataLarge.
     */
    ProcId
    largeOwner(Pfn pfn) const
    {
        std::size_t b = pfn / FramesPerLargePage;
        return b < largeOwners_.size() ? largeOwners_[b] : -1;
    }

    /** Fraction of @p socket's 2 MB blocks that are fully free. */
    double largeBlockFreeRatio(SocketId socket) const;

    /// @}
    /// @name Page-table frames
    /// @{

    /**
     * Allocate a zeroed page-table frame on @p socket: strict allocation
     * first, then the socket's reserve cache (§5.1). Returns nullopt only
     * when both fail.
     */
    std::optional<Pfn> allocPt(SocketId socket, int level, ProcId owner);

    void freePt(Pfn pfn);

    /** sysctl-style control of the per-socket PT reserve size. */
    void setPtCacheTarget(SocketId socket, std::uint64_t frames);
    std::uint64_t ptCacheSize(SocketId socket) const;

    /**
     * Backing storage of a PT frame (512 entries), writable: the
     * accessor for stores only (reads use tableView). Table storage
     * lives in per-socket slot arenas of 256 KiB chunks. A PTE store is
     * not a metadata write, so this reads the frame's metadata through
     * the const meta().
     */
    std::uint64_t *
    table(Pfn pfn)
    {
        const PageMeta &m = std::as_const(*this).meta(pfn);
        MITOSIM_DASSERT(m.isPageTable() && m.hasTable(),
                        "table(): not a PT frame");
        auto &words =
            tableArenas[static_cast<std::size_t>(socketOf(pfn))].words;
        return words.mut(m.tableSlot >> TableChunkShift) +
               slotOffset(m.tableSlot);
    }

    /**
     * Flat read-only view of a PT frame's 512-entry storage. The
     * walker's descent, pt/operations range sweeps and vmcheck's
     * coherence scan all read through here.
     */
    const std::uint64_t *
    tableView(Pfn pfn) const
    {
        const PageMeta &m = meta(pfn);
        MITOSIM_DASSERT(m.isPageTable() && m.hasTable(),
                        "tableView(): not a PT frame");
        const auto &words =
            tableArenas[static_cast<std::size_t>(socketOf(pfn))].words;
        return words.view(m.tableSlot >> TableChunkShift) +
               slotOffset(m.tableSlot);
    }

    /** Host telemetry: this instance's table-arena activity. */
    TableArenaStats tableArenaStats() const;

    /**
     * Page-table structure epoch: bumped by every allocPt, freePt,
     * linkReplica, unlinkReplica and cloneStateFrom. While it is
     * unchanged no PT frame was created or freed and no replica ring
     * changed, which is what lets PageTableOps::map4K reuse a
     * remembered descent.
     */
    std::uint64_t ptEpoch() const { return ptEpoch_; }

    /// @}
    /// @name Replica circular list (Figure 8)
    /// @{

    /** Insert @p added into the circular replica list containing @p base. */
    void linkReplica(Pfn base, Pfn added);

    /** Remove @p pfn from its replica list (self-link afterwards). */
    void unlinkReplica(Pfn pfn);

    /** Replica of @p pfn's list homed on @p socket, or InvalidPfn. */
    Pfn replicaOnSocket(Pfn pfn, SocketId socket) const;

    /** Number of pages in @p pfn's replica list (>= 1). */
    int replicaCount(Pfn pfn) const;

    /** Visit every page in the replica list, starting at @p pfn. */
    void forEachReplica(Pfn pfn,
                        const std::function<void(Pfn)> &fn) const;

    /// @}

    /**
     * 4096 frames (16 MiB of simulated memory) per metadata chunk —
     * the materialization granule: 64 KiB of 16-byte PageMeta. Kept
     * small so a sparse touch initializes (and a fork copies) roughly
     * what is used rather than a 128 MiB-of-memory span, while staying
     * large enough that the chunk pointer table is trivial. 64 chunks
     * (4 MiB) per slab, the host-fault granule.
     */
    static constexpr unsigned MetaChunkShift = 12;
    static constexpr std::uint64_t MetaChunkSize = 1ull << MetaChunkShift;
    static constexpr std::size_t MetaSlabChunks = 64;

    /**
     * Was the metadata chunk holding @p pfn ever materialized? Every
     * frame of an untouched chunk reads as pristine Free, so a sweep
     * over all frames can step over it MetaChunkSize frames at a time.
     */
    bool
    metaMaterialized(Pfn pfn) const
    {
        return metaChunks.view(pfn >> MetaChunkShift) != nullptr;
    }

    /** Host telemetry: metadata chunks materialized (see wall_ms). */
    std::size_t
    metaChunksMaterialized() const
    {
        return metaChunks.materialized();
    }

    /**
     * Metadata of frame @p pfn. Storage is chunked and materialized on
     * first (mutable) touch: a multi-TiB simulated machine costs host
     * memory only for the frames actually used, and constructing /
     * destroying a PhysicalMemory is O(chunks touched), not O(frames).
     * Reads use the const overload, which never materializes.
     */
    PageMeta &
    meta(Pfn pfn)
    {
        MITOSIM_DASSERT(pfn < totalFrames_, "meta(): pfn out of range");
        return metaChunks.mut(pfn >> MetaChunkShift)[pfn & (MetaChunkSize - 1)];
    }

    /** Read-only view; an untouched frame reads as pristine Free. */
    const PageMeta &
    meta(Pfn pfn) const
    {
        MITOSIM_DASSERT(pfn < totalFrames_, "meta(): pfn out of range");
        const PageMeta *chunk = metaChunks.view(pfn >> MetaChunkShift);
        if (!chunk) [[unlikely]]
            return pristineMeta;
        return chunk[pfn & (MetaChunkSize - 1)];
    }

    SocketId socketOf(Pfn pfn) const { return topo.socketOfPfn(pfn); }

    std::uint64_t freeFrames(SocketId socket) const;
    std::uint64_t freeLargeBlocks(SocketId socket) const;

    /** Read-only allocator view (kcompactd's block scan). */
    const FrameAllocator &allocator(SocketId socket) const
    {
        return alloc(socket);
    }
    const MemStats &stats(SocketId socket) const;

    /** Live PT frames on @p socket at @p level (analysis, Fig 3). */
    std::uint64_t ptPagesAt(SocketId socket, int level) const;

    /**
     * Snapshot restore: copy the full frame state of @p src —
     * allocators, stats, PT reserve caches, the 2 MB page records, the
     * pin bitmap, and every materialized metadata and table-arena chunk
     * (the host-backed 512-entry page-table storage). The two instances
     * share no storage afterwards. @p src must describe the same
     * topology.
     */
    void cloneStateFrom(const PhysicalMemory &src);

    /// @name Fragmentation injection (Figure 11)
    /// @{

    /**
     * Pin one filler frame inside each of a random @p fraction of
     * @p socket's fully free 2 MB blocks (FrameAllocator::fragment).
     * The pin bitmap is what marks them: one bit per frame, allocated
     * on the first call. A filler's metadata is never written, so a
     * fragmented machine materializes no metadata chunk for its pins.
     */
    void fragment(SocketId socket, double fraction, Rng &rng);

    /**
     * Free every filler on @p socket, in pfn order, and clear its pin
     * bit. That includes fillers kcompactd has moved since fragment().
     */
    void defragment(SocketId socket);
    /// @}

  private:
    /**
     * 64 tables (256 KiB) per table-arena chunk — the materialization
     * granule for page-table storage, sized so that eight chunks tile
     * one THP-advised 2 MiB slab exactly.
     */
    static constexpr unsigned TableChunkShift = 6;
    static constexpr std::uint32_t TableChunkTables = 1u << TableChunkShift;
    static constexpr std::size_t TableChunkElems =
        static_cast<std::size_t>(TableChunkTables) * PtEntriesPerPage;
    static constexpr std::size_t TableSlabChunks = 8;

    using MetaChunks = ChunkStore<PageMeta, MetaChunkSize, MetaSlabChunks>;
    using TableChunks =
        ChunkStore<std::uint64_t, TableChunkElems, TableSlabChunks>;

    /**
     * One per-socket arena of page-table storage: a growable sequence
     * of slots (512 x u64 each), addressed by PageMeta::tableSlot and
     * packed into chunks of TableChunkTables tables. Freed slots are
     * recycled LIFO; allocTableSlot zeroes a recycled slot.
     */
    struct TableArena
    {
        TableChunks words;
        std::vector<std::uint32_t> freeSlots;
        std::uint32_t highWater = 0; //!< slots ever allocated
    };

    /** Offset of @p slot's 512 entries within its chunk. */
    static std::size_t
    slotOffset(std::uint32_t slot)
    {
        return (slot & (TableChunkTables - 1)) * PtEntriesPerPage;
    }

    FrameAllocator &alloc(SocketId socket);
    const FrameAllocator &alloc(SocketId socket) const;
    std::optional<Pfn> popPtCache(SocketId socket);

    /** Slot with zeroed 512-entry storage on @p socket's arena. */
    std::uint32_t allocTableSlot(SocketId socket);
    void releaseTableSlot(SocketId socket, std::uint32_t slot);

    /** What meta() const reports for frames in untouched chunks. */
    inline static const PageMeta pristineMeta{};

    const numa::Topology &topo;
    std::uint64_t totalFrames_;
    std::vector<FrameAllocator> allocators;
    MetaChunks metaChunks;
    std::vector<MemStats> perSocket;

    // PT reserve caches: frames pre-allocated per socket.
    std::vector<std::vector<Pfn>> ptCache;
    std::vector<std::uint64_t> ptCacheTarget;

    // Live PT page counts [socket][level 0..4] (level index 1..4 used).
    std::vector<std::array<std::uint64_t, 5>> ptLive;

    // Page-table storage arenas, one per socket.
    std::vector<TableArena> tableArenas;

    std::uint64_t ptEpoch_ = 0; //!< see ptEpoch()

    /**
     * Owner of each 2 MB block's live huge data page, -1 for none (see
     * largeOwner); empty until the first allocDataLarge().
     */
    std::vector<ProcId> largeOwners_;

    /**
     * Fragmentation-filler bitmap, one bit per frame (see pinWord);
     * empty until the first fragment().
     */
    std::vector<std::uint64_t> fragPins_;

    std::uint64_t tableSlotRecycles_ = 0; //!< host telemetry
};

} // namespace mitosim::mem

#endif // MITOSIM_MEM_PHYSICAL_MEMORY_H
