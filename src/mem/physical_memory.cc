#include "physical_memory.h"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <new>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "src/base/logging.h"

namespace mitosim::mem
{

namespace
{

/**
 * Process-wide slab arena + recycling pool for one element type's
 * ChunkStores.
 *
 * Chunks churn constantly (machines are built and torn down mid-run,
 * forks copy them), and concurrent bench jobs each keep a whole
 * populated machine alive, so a large share of chunk requests cannot be
 * served by recycling at all — they are fresh, and a per-chunk host
 * allocation pays a page-fault per 4 KiB. Minting chunks out of
 * multi-megabyte value-initialized slabs faults the host pages
 * sequentially (and lets the kernel use transparent huge pages),
 * which is several times cheaper per chunk. Slabs are never freed;
 * released chunks are scrubbed back to T{} and parked in `free` for
 * reuse, so arena growth is bounded by the peak live chunk count.
 * Deliberately leaked so chunk deleters running during static
 * destruction stay safe.
 */
template <typename T>
struct SlabPool
{
    std::mutex mu;
    std::vector<T *> free;      //!< scrubbed, ready to hand out
    std::uint64_t slabs = 0;    //!< telemetry: slabs minted
    std::uint64_t recycles = 0; //!< telemetry: chunks reused

    static SlabPool &
    instance()
    {
        static auto *pool = new SlabPool;
        return *pool;
    }
};

/**
 * One slab: a 2 MiB-aligned block advised towards transparent huge
 * pages *before* the initializing pass touches it, so the kernel can
 * back the whole slab with a handful of huge-page faults instead of
 * one 4 KiB fault per page. Slabs are intentionally never freed (the
 * pool owns every chunk for the process lifetime), so the raw pointer
 * is all the bookkeeping needed.
 */
template <typename T>
T *
newSlab(std::size_t elems)
{
    void *mem = ::operator new(elems * sizeof(T),
                               std::align_val_t{2ull << 20});
#ifdef __linux__
    (void)madvise(mem, elems * sizeof(T), MADV_HUGEPAGE);
#endif
    T *base = static_cast<T *>(mem);
    for (std::size_t i = 0; i < elems; ++i)
        new (base + i) T{};
    return base;
}

} // namespace

SlabPoolStats
slabPoolStats()
{
    SlabPoolStats out;
    {
        auto &pool = SlabPool<PageMeta>::instance();
        std::lock_guard<std::mutex> g(pool.mu);
        out.metaSlabs = pool.slabs;
        out.metaRecycles = pool.recycles;
    }
    {
        auto &pool = SlabPool<std::uint64_t>::instance();
        std::lock_guard<std::mutex> g(pool.mu);
        out.tableSlabs = pool.slabs;
        out.tableRecycles = pool.recycles;
    }
    return out;
}

template <typename T, std::size_t ChunkElems, std::size_t SlabChunks>
void
ChunkStore<T, ChunkElems, SlabChunks>::materialize(Ptr &chunk)
{
    SlabPool<T> &pool = SlabPool<T>::instance();
    std::lock_guard<std::mutex> g(pool.mu);
    if (pool.free.empty()) {
        T *base = newSlab<T>(SlabChunks * ChunkElems);
        ++pool.slabs;
        // Push in descending address order so chunks are handed out
        // ascending, matching the slab's fault order.
        for (std::size_t c = SlabChunks; c-- > 0;)
            pool.free.push_back(base + c * ChunkElems);
    }
    chunk.reset(pool.free.back());
    pool.free.pop_back();
}

template <typename T, std::size_t ChunkElems, std::size_t SlabChunks>
void
ChunkStore<T, ChunkElems, SlabChunks>::Release::operator()(T *chunk) const
{
    // Scrubbed back to pristine, a chunk is indistinguishable from a
    // fresh one.
    std::fill_n(chunk, ChunkElems, T{});
    SlabPool<T> &pool = SlabPool<T>::instance();
    std::lock_guard<std::mutex> g(pool.mu);
    pool.free.push_back(chunk);
    ++pool.recycles;
}

// The two stores PhysicalMemory keeps (see MetaChunks / TableChunks).
template class ChunkStore<PageMeta, PhysicalMemory::MetaChunkSize,
                          PhysicalMemory::MetaSlabChunks>;
template class ChunkStore<std::uint64_t, PhysicalMemory::TableChunkElems,
                          PhysicalMemory::TableSlabChunks>;

PhysicalMemory::PhysicalMemory(const numa::Topology &topology)
    : topo(topology),
      totalFrames_(topo.totalFrames()),
      metaChunks((topo.totalFrames() + MetaChunkSize - 1) >> MetaChunkShift),
      perSocket(static_cast<std::size_t>(topo.numSockets())),
      ptCache(static_cast<std::size_t>(topo.numSockets())),
      ptCacheTarget(static_cast<std::size_t>(topo.numSockets()), 0),
      ptLive(static_cast<std::size_t>(topo.numSockets())),
      tableArenas(static_cast<std::size_t>(topo.numSockets()))
{
    allocators.reserve(static_cast<std::size_t>(topo.numSockets()));
    for (SocketId s = 0; s < topo.numSockets(); ++s)
        allocators.emplace_back(topo.firstPfnOf(s), topo.framesPerSocket());
    for (auto &arr : ptLive)
        arr.fill(0);
}

FrameAllocator &
PhysicalMemory::alloc(SocketId socket)
{
    MITOSIM_ASSERT(socket >= 0 && socket < topo.numSockets());
    return allocators[static_cast<std::size_t>(socket)];
}

const FrameAllocator &
PhysicalMemory::alloc(SocketId socket) const
{
    MITOSIM_ASSERT(socket >= 0 && socket < topo.numSockets());
    return allocators[static_cast<std::size_t>(socket)];
}

std::optional<Pfn>
PhysicalMemory::allocData(SocketId socket, ProcId owner)
{
    auto pfn = alloc(socket).allocFrame();
    if (!pfn)
        return std::nullopt;
    PageMeta &m = meta(*pfn);
    m.type = FrameType::Data;
    m.owner = owner;
    m.level = 0;
    m.replicaNext = *pfn;
    ++perSocket[static_cast<std::size_t>(socket)].dataPages;
    return pfn;
}

std::optional<Pfn>
PhysicalMemory::allocDataAny(SocketId preferred, ProcId owner)
{
    auto pfn = allocData(preferred, owner);
    if (pfn)
        return pfn;
    for (int d = 1; d < topo.numSockets(); ++d) {
        SocketId s = (preferred + d) % topo.numSockets();
        pfn = allocData(s, owner);
        if (pfn)
            return pfn;
    }
    return std::nullopt;
}

std::optional<Pfn>
PhysicalMemory::allocDataLarge(SocketId socket, ProcId owner)
{
    MITOSIM_ASSERT(owner != -1, "allocDataLarge: -1 marks a block with "
                                "no 2 MB page");
    auto head = alloc(socket).allocLargeBlock();
    if (!head)
        return std::nullopt;
    if (largeOwners_.empty())
        largeOwners_.assign(totalFrames_ / FramesPerLargePage, -1);
    largeOwners_[*head / FramesPerLargePage] = owner;
    ++perSocket[static_cast<std::size_t>(socket)].dataLargePages;
    return head;
}

void
PhysicalMemory::freeData(Pfn pfn)
{
    PageMeta &m = meta(pfn);
    MITOSIM_ASSERT(m.type == FrameType::Data,
                   "freeData: not a small data frame");
    m.type = FrameType::Free;
    m.owner = -1;
    m.replicaNext = InvalidPfn;
    SocketId s = socketOf(pfn);
    --perSocket[static_cast<std::size_t>(s)].dataPages;
    alloc(s).freeFrame(pfn);
}

void
PhysicalMemory::freeDataLarge(Pfn head)
{
    MITOSIM_ASSERT(head % FramesPerLargePage == 0 && largeOwner(head) != -1,
                   "freeDataLarge: not a large-page head");
    largeOwners_[head / FramesPerLargePage] = -1;
    SocketId s = socketOf(head);
    --perSocket[static_cast<std::size_t>(s)].dataLargePages;
    alloc(s).freeLargeBlock(head);
}

std::optional<Pfn>
PhysicalMemory::migrateData(Pfn pfn, SocketId target)
{
    ProcId owner = largeOwner(pfn);
    bool large = owner != -1;
    if (large) {
        MITOSIM_ASSERT(pfn % FramesPerLargePage == 0,
                       "migrateData: interior of a large page");
    } else {
        const PageMeta &m = std::as_const(*this).meta(pfn);
        MITOSIM_ASSERT(m.type == FrameType::Data, "migrateData: not data");
        owner = m.owner;
    }
    std::optional<Pfn> fresh = large ? allocDataLarge(target, owner)
                                     : allocData(target, owner);
    if (!fresh)
        return std::nullopt;
    if (large)
        freeDataLarge(pfn);
    else
        freeData(pfn);
    return fresh;
}

void
PhysicalMemory::splitLargeData(Pfn head)
{
    ProcId owner = largeOwner(head);
    MITOSIM_ASSERT(head % FramesPerLargePage == 0 && owner != -1,
                   "splitLargeData: not a large-page head");
    largeOwners_[head / FramesPerLargePage] = -1;
    for (Pfn p = head; p < head + FramesPerLargePage; ++p) {
        PageMeta &m = meta(p);
        m.type = FrameType::Data;
        m.owner = owner;
        m.replicaNext = p;
    }
    auto &st = perSocket[static_cast<std::size_t>(socketOf(head))];
    --st.dataLargePages;
    st.dataPages += FramesPerLargePage;
}

std::optional<Pfn>
PhysicalMemory::compactData(Pfn pfn)
{
    PageMeta &m = meta(pfn);
    MITOSIM_ASSERT(m.type == FrameType::Data,
                   "compactData: not a small data frame");
    SocketId s = socketOf(pfn);
    auto dest = alloc(s).allocFrameForCompaction(pfn);
    if (!dest)
        return std::nullopt;
    PageMeta &d = meta(*dest);
    d.type = FrameType::Data;
    d.owner = m.owner;
    d.level = 0;
    d.replicaNext = *dest;
    m.type = FrameType::Free;
    m.owner = -1;
    m.replicaNext = InvalidPfn;
    alloc(s).freeFrame(pfn);
    // dataPages is unchanged: one frame freed, one allocated, same
    // socket.
    return dest;
}

bool
PhysicalMemory::compactReservedPin(Pfn pfn)
{
    MITOSIM_ASSERT(isFragPinned(pfn),
                   "compactReservedPin: not a fragmentation filler");
    SocketId s = socketOf(pfn);
    auto dest = alloc(s).allocFrameForCompaction(pfn);
    if (!dest)
        return false;
    fragPins_[*dest >> 6] |= 1ull << (*dest & 63);
    fragPins_[pfn >> 6] &= ~(1ull << (pfn & 63));
    alloc(s).freeFrame(pfn);
    return true;
}

double
PhysicalMemory::largeBlockFreeRatio(SocketId socket) const
{
    return alloc(socket).largeBlockFreeRatio();
}

std::optional<Pfn>
PhysicalMemory::popPtCache(SocketId socket)
{
    auto &cache = ptCache[static_cast<std::size_t>(socket)];
    if (cache.empty())
        return std::nullopt;
    Pfn pfn = cache.back();
    cache.pop_back();
    return pfn;
}

std::optional<Pfn>
PhysicalMemory::allocPt(SocketId socket, int level, ProcId owner)
{
    MITOSIM_ASSERT(level >= 1 && level <= 4, "bad page-table level");
    auto &st = perSocket[static_cast<std::size_t>(socket)];
    ++st.ptAllocs;

    std::optional<Pfn> pfn = alloc(socket).allocFrame();
    if (!pfn) {
        pfn = popPtCache(socket); // reserve pool fallback (§5.1)
        if (pfn)
            ++st.ptCacheHits;
    }
    if (!pfn) {
        ++st.ptAllocFailures;
        return std::nullopt;
    }

    PageMeta &m = meta(*pfn);
    m.type = FrameType::PageTable;
    m.owner = owner;
    m.level = static_cast<std::uint8_t>(level);
    m.replicaNext = *pfn; // self-linked until replicated
    m.tableSlot = allocTableSlot(socket);

    ++st.ptPages;
    ++ptLive[static_cast<std::size_t>(socket)][static_cast<std::size_t>(
        level)];
    ++ptEpoch_;
    return pfn;
}

void
PhysicalMemory::freePt(Pfn pfn)
{
    PageMeta &m = meta(pfn);
    MITOSIM_ASSERT(m.isPageTable(), "freePt: not a page-table frame");
    MITOSIM_ASSERT(m.replicaNext == pfn,
                   "freePt: page still linked in a replica list");
    SocketId s = socketOf(pfn);
    auto &st = perSocket[static_cast<std::size_t>(s)];
    --st.ptPages;
    --ptLive[static_cast<std::size_t>(s)][m.level];
    ++ptEpoch_;

    releaseTableSlot(s, m.tableSlot);
    m.tableSlot = NoTableSlot;
    m.owner = -1;
    m.level = 0;
    m.replicaNext = InvalidPfn;

    auto &cache = ptCache[static_cast<std::size_t>(s)];
    if (cache.size() < ptCacheTarget[static_cast<std::size_t>(s)]) {
        m.type = FrameType::Reserved;
        cache.push_back(pfn);
    } else {
        m.type = FrameType::Free;
        alloc(s).freeFrame(pfn);
    }
}

void
PhysicalMemory::setPtCacheTarget(SocketId socket, std::uint64_t frames)
{
    MITOSIM_ASSERT(socket >= 0 && socket < topo.numSockets());
    auto idx = static_cast<std::size_t>(socket);
    ptCacheTarget[idx] = frames;
    auto &cache = ptCache[idx];
    // Grow eagerly while memory is available.
    while (cache.size() < frames) {
        auto pfn = alloc(socket).allocFrame();
        if (!pfn)
            break;
        meta(*pfn).type = FrameType::Reserved;
        cache.push_back(*pfn);
    }
    // Shrink eagerly when the target drops.
    while (cache.size() > frames) {
        Pfn pfn = cache.back();
        cache.pop_back();
        meta(pfn).type = FrameType::Free;
        alloc(socket).freeFrame(pfn);
    }
}

std::uint64_t
PhysicalMemory::ptCacheSize(SocketId socket) const
{
    MITOSIM_ASSERT(socket >= 0 && socket < topo.numSockets());
    return ptCache[static_cast<std::size_t>(socket)].size();
}

void
PhysicalMemory::linkReplica(Pfn base, Pfn added)
{
    PageMeta &bm = meta(base);
    PageMeta &am = meta(added);
    MITOSIM_ASSERT(bm.isPageTable() && am.isPageTable());
    MITOSIM_ASSERT(am.replicaNext == added,
                   "linkReplica: page already in a list");
    am.replicaNext = bm.replicaNext;
    bm.replicaNext = added;
    ++ptEpoch_;
}

void
PhysicalMemory::unlinkReplica(Pfn pfn)
{
    PageMeta &m = meta(pfn);
    MITOSIM_ASSERT(m.isPageTable());
    if (m.replicaNext == pfn)
        return; // already alone
    Pfn prev = pfn;
    while (meta(prev).replicaNext != pfn)
        prev = meta(prev).replicaNext;
    meta(prev).replicaNext = m.replicaNext;
    m.replicaNext = pfn;
    ++ptEpoch_;
}

Pfn
PhysicalMemory::replicaOnSocket(Pfn pfn, SocketId socket) const
{
    Pfn p = pfn;
    do {
        if (socketOf(p) == socket)
            return p;
        p = meta(p).replicaNext;
    } while (p != pfn);
    return InvalidPfn;
}

int
PhysicalMemory::replicaCount(Pfn pfn) const
{
    int n = 0;
    Pfn p = pfn;
    do {
        ++n;
        p = meta(p).replicaNext;
    } while (p != pfn);
    return n;
}

void
PhysicalMemory::forEachReplica(Pfn pfn,
                               const std::function<void(Pfn)> &fn) const
{
    Pfn p = pfn;
    do {
        fn(p);
        p = meta(p).replicaNext;
    } while (p != pfn);
}

std::uint64_t
PhysicalMemory::freeFrames(SocketId socket) const
{
    return alloc(socket).freeFrames();
}

std::uint64_t
PhysicalMemory::freeLargeBlocks(SocketId socket) const
{
    return alloc(socket).freeLargeBlocks();
}

const MemStats &
PhysicalMemory::stats(SocketId socket) const
{
    MITOSIM_ASSERT(socket >= 0 && socket < topo.numSockets());
    return perSocket[static_cast<std::size_t>(socket)];
}

std::uint64_t
PhysicalMemory::ptPagesAt(SocketId socket, int level) const
{
    MITOSIM_ASSERT(socket >= 0 && socket < topo.numSockets());
    MITOSIM_ASSERT(level >= 1 && level <= 4);
    return ptLive[static_cast<std::size_t>(socket)][static_cast<std::size_t>(
        level)];
}

void
PhysicalMemory::fragment(SocketId socket, double fraction, Rng &rng)
{
    if (fragPins_.empty())
        fragPins_.assign((totalFrames_ + 63) >> 6, 0);
    for (Pfn pfn : alloc(socket).fragment(fraction, rng))
        fragPins_[pfn >> 6] |= 1ull << (pfn & 63);
}

void
PhysicalMemory::defragment(SocketId socket)
{
    FrameAllocator &a = alloc(socket);
    std::size_t end = std::min<std::size_t>(
        (a.firstPfn() + a.totalFrames()) >> 6, fragPins_.size());
    for (std::size_t w = a.firstPfn() >> 6; w < end; ++w) {
        for (std::uint64_t bits = fragPins_[w]; bits != 0; bits &= bits - 1)
            a.freeFrame((w << 6) +
                        static_cast<unsigned>(std::countr_zero(bits)));
        fragPins_[w] = 0;
    }
}

std::uint32_t
PhysicalMemory::allocTableSlot(SocketId socket)
{
    TableArena &arena = tableArenas[static_cast<std::size_t>(socket)];
    std::uint32_t slot;
    bool recycled = false;
    if (!arena.freeSlots.empty()) {
        slot = arena.freeSlots.back();
        arena.freeSlots.pop_back();
        recycled = true;
        ++tableSlotRecycles_;
    } else {
        slot = arena.highWater++;
    }
    std::size_t c = slot >> TableChunkShift;
    if (c >= arena.words.size())
        arena.words.resize(c + 1);
    std::uint64_t *chunk = arena.words.mut(c); // born zeroed
    // A recycled slot still holds the freed table's stale PTEs; a
    // never-used slot is zero already.
    if (recycled)
        std::fill_n(chunk + slotOffset(slot), PtEntriesPerPage, 0);
    return slot;
}

void
PhysicalMemory::releaseTableSlot(SocketId socket, std::uint32_t slot)
{
    MITOSIM_ASSERT(slot != NoTableSlot, "releaseTableSlot: no slot");
    tableArenas[static_cast<std::size_t>(socket)].freeSlots.push_back(slot);
}

TableArenaStats
PhysicalMemory::tableArenaStats() const
{
    TableArenaStats out;
    out.slotRecycles = tableSlotRecycles_;
    for (const TableArena &arena : tableArenas) {
        out.chunks += arena.words.materialized();
        out.liveSlots += arena.highWater - arena.freeSlots.size();
    }
    return out;
}

void
PhysicalMemory::cloneStateFrom(const PhysicalMemory &src)
{
    MITOSIM_ASSERT(totalFrames_ == src.totalFrames_ &&
                       allocators.size() == src.allocators.size(),
                   "cloneStateFrom: machine shape mismatch");
    allocators = src.allocators;
    perSocket = src.perSocket;
    ptCache = src.ptCache;
    ptCacheTarget = src.ptCacheTarget;
    ptLive = src.ptLive;
    largeOwners_ = src.largeOwners_;
    fragPins_ = src.fragPins_;
    metaChunks = src.metaChunks;
    tableArenas = src.tableArenas;
    tableSlotRecycles_ = src.tableSlotRecycles_;
    ++ptEpoch_;
}

} // namespace mitosim::mem
