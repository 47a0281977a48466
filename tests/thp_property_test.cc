/**
 * @file
 * THP lifecycle equivalence + compaction property tests.
 *
 * Property 1 (mirroring range_ops_test.cc): random sequences of
 * populate / munmap / mprotect / madvise / collapse / split against
 * two kernels — one executing the lifecycle subsystem's batched,
 * replica-coherent operations (collapseRange/splitHuge through the
 * PV-Ops seam), the other a *per-page reference executor* that
 * reproduces each lifecycle event through the pre-existing per-page
 * primitives (per-page unmap + releasePtPage + map2M for collapse;
 * unmap + splitLargeData + per-page map4K for split). After every
 * step both sides must agree on the pt_dump snapshot, VMA metadata
 * and physical-memory accounting, for native and mitosis backends;
 * under mitosis every per-socket replica root must additionally agree
 * with the primary.
 *
 * Property 2: khugepaged + kcompactd recovery under fragmentation
 * must preserve every mapping (frames may move, sizes may promote),
 * keep the physical accounting conserved, and never decrease 2 MB
 * coverage.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/pt_dump.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/core/mitosis.h"
#include "src/os/kernel.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::os
{
namespace
{

constexpr VirtAddr Base = 0x10000000000ull;

/** unmapRange callback: the reference executor frees frames itself. */
void
keepFrames(VirtAddr, pt::Pte, PageSizeKind)
{
}

enum class BackendKind
{
    Native,
    Mitosis,
};

/** One side: machine + backend + kernel + process. */
struct Side
{
    explicit Side(BackendKind kind)
        : machine(sim::MachineConfig::tiny()),
          native(machine.physmem()),
          mitosis(machine.physmem()),
          kernel(machine,
                 kind == BackendKind::Native
                     ? static_cast<pvops::PvOps &>(native)
                     : static_cast<pvops::PvOps &>(mitosis),
                 lifecycleConfig()),
          proc(kernel.createProcess("thp-prop", 0))
    {
        if (kind == BackendKind::Mitosis) {
            mitosis.setReplicationMask(proc.roots(), proc.id(),
                                       SocketMask::all(2));
        }
    }

    static KernelConfig
    lifecycleConfig()
    {
        KernelConfig cfg;
        cfg.thp.splitPartial = true;
        return cfg;
    }

    std::string
    snapshot()
    {
        analysis::PtAnalyzer analyzer(machine.physmem(),
                                      kernel.ptOps());
        return analyzer.snapshot(proc.roots()).str();
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    core::MitosisBackend mitosis;
    Kernel kernel;
    Process &proc;
};

/**
 * Per-page reference executor: reproduces every lifecycle event
 * through per-page primitives against a twin kernel, keeping the
 * physical allocation/free *order* identical to the batched side so
 * the frame layouts stay comparable.
 */
class RefExecutor
{
  public:
    RefExecutor(Kernel &kernel, Process &proc)
        : k(kernel), p(proc), m(kernel.machine())
    {
    }

    void
    populate(VirtAddr start, std::uint64_t length)
    {
        auto &ops = k.ptOps();
        VirtAddr va = start;
        VirtAddr end = start + length;
        while (va < end) {
            pt::WalkResult existing = ops.walk(p.roots(), va);
            if (existing.mapped) {
                va += stepOf(existing.size, va);
                continue;
            }
            ASSERT_TRUE(faultIn(va)) << "ref populate OOM";
            pt::WalkResult mapped = ops.walk(p.roots(), va);
            ASSERT_TRUE(mapped.mapped);
            va += stepOf(mapped.size, va);
        }
    }

    void
    munmap(VirtAddr start, std::uint64_t length)
    {
        VirtAddr end = start + alignUp(length, PageSize);
        splitIfStraddling(start);
        splitIfStraddling(end);
        auto &ops = k.ptOps();
        auto &pm = m.physmem();
        for (VirtAddr va = start; va < end;) {
            pt::WalkResult res = ops.walk(p.roots(), va);
            if (!res.mapped) {
                va += PageSize;
                continue;
            }
            ops.unmapRange(p.roots(), va, va + PageSize, keepFrames,
                           nullptr);
            if (res.size == PageSizeKind::Large2M)
                pm.freeDataLarge(res.leaf.pfn());
            else
                pm.freeData(res.leaf.pfn());
            va += stepOf(res.size, va);
        }
        p.removeVmaRange(start, end);
    }

    void
    mprotect(VirtAddr start, std::uint64_t length, std::uint64_t prot)
    {
        VirtAddr end = start + alignUp(length, PageSize);
        splitIfStraddling(start);
        splitIfStraddling(end);
        auto &ops = k.ptOps();
        std::uint64_t set = 0;
        std::uint64_t clear = 0;
        if (prot & ProtWrite)
            set |= pt::PteWrite;
        else
            clear |= pt::PteWrite;
        for (VirtAddr va = start; va < end;) {
            pt::WalkResult res = ops.walk(p.roots(), va);
            if (!res.mapped) {
                va += PageSize;
                continue;
            }
            ops.protect(p.roots(), va, set, clear, nullptr);
            va += stepOf(res.size, va);
        }
        p.protectVmaRange(start, end, prot);
    }

    void
    madvise(VirtAddr start, std::uint64_t length, bool enable)
    {
        VirtAddr end = start + alignUp(length, PageSize);
        splitIfStraddling(start);
        splitIfStraddling(end);
        p.adviseThpRange(start, end, enable);
    }

    /** Reproduce a collapse the lifecycle side reported successful. */
    void
    collapse(VirtAddr base)
    {
        auto &ops = k.ptOps();
        auto &pm = m.physmem();
        Pfn leaf_table = ops.tableFor(p.roots(), base, 1);
        ASSERT_NE(leaf_table, InvalidPfn) << "ref collapse: no table";
        const std::uint64_t *tbl = pm.table(leaf_table);

        std::vector<std::pair<unsigned, Pfn>> old_frames;
        std::array<unsigned, pt::MaxSockets> per_socket{};
        std::uint64_t uniform = 0;
        for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
            pt::Pte entry{tbl[i]};
            if (!entry.present())
                continue;
            if (old_frames.empty())
                uniform = entry.raw() & ~pt::PteAdMask &
                          ~pt::PtePfnMask;
            ++per_socket[static_cast<std::size_t>(
                pm.socketOf(entry.pfn()))];
            old_frames.emplace_back(i, entry.pfn());
        }
        ASSERT_FALSE(old_frames.empty());
        SocketId target = 0;
        for (SocketId s = 1; s < m.numSockets(); ++s) {
            if (per_socket[static_cast<std::size_t>(s)] >
                per_socket[static_cast<std::size_t>(target)])
                target = s;
        }

        // Same physical order as the batched side: the 2 MB block
        // first, then the leaf-table release, then the frame frees.
        // map2M adds Present|Huge itself, so pass the run's flags
        // without Present (a 4 KB run never carries Huge).
        auto head = pm.allocDataLarge(target, p.id());
        ASSERT_TRUE(head.has_value()) << "ref collapse: no block";
        for (const auto &[idx, pfn] : old_frames) {
            VirtAddr va = base + idx * PageSize;
            ops.unmapRange(p.roots(), va, va + PageSize, keepFrames,
                           nullptr);
        }
        k.backend().releasePtPage(p.roots(), leaf_table, nullptr);
        ASSERT_TRUE(ops.map2M(p.roots(), p.id(), base, *head,
                              uniform & ~std::uint64_t{pt::PtePresent},
                              p.ptPolicy, 0, nullptr));
        for (const auto &[idx, pfn] : old_frames)
            pm.freeData(pfn);
        p.residentPages +=
            FramesPerLargePage - old_frames.size();
    }

    /** Reproduce a split the lifecycle side reported successful. */
    void
    split(VirtAddr va)
    {
        VirtAddr base = alignDown(va, LargePageSize);
        auto &ops = k.ptOps();
        auto &pm = m.physmem();
        pt::WalkResult res = ops.walk(p.roots(), base);
        ASSERT_TRUE(res.mapped &&
                    res.size == PageSizeKind::Large2M);
        Pfn head = res.leaf.pfn();
        std::uint64_t flags = res.leaf.raw() & ~pt::PtePfnMask &
                              ~static_cast<std::uint64_t>(pt::PteHuge);
        SocketId hint = pm.socketOf(res.loc.ptPfn);

        ops.unmapRange(p.roots(), base, base + PageSize, keepFrames,
                       nullptr);
        pm.splitLargeData(head);
        for (unsigned i = 0; i < FramesPerLargePage; ++i) {
            ASSERT_TRUE(ops.map4K(p.roots(), p.id(),
                                  base + i * PageSize, head + i, flags,
                                  p.ptPolicy, hint, nullptr));
        }
    }

  private:
    static VirtAddr
    stepOf(PageSizeKind size, VirtAddr va)
    {
        return size == PageSizeKind::Large2M
                   ? LargePageSize - (va & (LargePageSize - 1))
                   : PageSize;
    }

    void
    splitIfStraddling(VirtAddr boundary)
    {
        if ((boundary & (LargePageSize - 1)) == 0)
            return;
        VirtAddr base = alignDown(boundary, LargePageSize);
        pt::WalkResult res = k.ptOps().walk(p.roots(), base);
        if (res.mapped && res.size == PageSizeKind::Large2M)
            split(boundary);
    }

    /** The kernel's demand fault, per-page, with the pmd_none rule. */
    bool
    faultIn(VirtAddr va)
    {
        const Vma *vma = p.findVma(va);
        if (!vma)
            panic("ref segfault at va=0x%llx", (unsigned long long)va);
        auto &pm = m.physmem();
        std::uint64_t flags = pt::PteUser;
        if (vma->prot & ProtWrite)
            flags |= pt::PteWrite;

        VirtAddr huge_base = alignDown(va, LargePageSize);
        bool slot_vacant = true;
        if (Pfn dir = k.ptOps().tableFor(p.roots(), huge_base, 2);
            dir != InvalidPfn) {
            pt::Pte slot{pm.table(dir)[ptIndex(huge_base,
                                               PtLevel::L2)]};
            slot_vacant = !slot.present();
        }
        if (vma->thpEnabled && slot_vacant && huge_base >= vma->start &&
            huge_base + LargePageSize <= vma->end) {
            if (auto head = pm.allocDataLarge(0, p.id())) {
                if (k.ptOps().map2M(p.roots(), p.id(), huge_base,
                                    *head, flags, p.ptPolicy, 0,
                                    nullptr)) {
                    p.residentPages += FramesPerLargePage;
                    return true;
                }
                pm.freeDataLarge(*head);
                return false;
            }
        }
        auto pfn = pm.allocData(0, p.id());
        if (!pfn)
            pfn = pm.allocDataAny(0, p.id());
        if (!pfn)
            return false;
        VirtAddr page_va = alignDown(va, PageSize);
        if (!k.ptOps().map4K(p.roots(), p.id(), page_va, *pfn, flags,
                             p.ptPolicy, 0, nullptr)) {
            pm.freeData(*pfn);
            return false;
        }
        ++p.residentPages;
        return true;
    }

    Kernel &k;
    Process &p;
    sim::Machine &m;
};

void
expectSidesEq(Side &life, Side &ref, const std::string &what)
{
    EXPECT_EQ(life.snapshot(), ref.snapshot()) << what;
    EXPECT_EQ(life.proc.residentPages, ref.proc.residentPages) << what;
    EXPECT_EQ(life.proc.vmas().size(), ref.proc.vmas().size()) << what;
    for (SocketId s = 0; s < life.machine.numSockets(); ++s) {
        const auto &sa = life.machine.physmem().stats(s);
        const auto &sb = ref.machine.physmem().stats(s);
        EXPECT_EQ(sa.dataPages, sb.dataPages) << what << " socket " << s;
        EXPECT_EQ(sa.dataLargePages, sb.dataLargePages)
            << what << " socket " << s;
        EXPECT_EQ(sa.ptPages, sb.ptPages) << what << " socket " << s;
        EXPECT_EQ(life.machine.physmem().freeFrames(s),
                  ref.machine.physmem().freeFrames(s))
            << what << " socket " << s;
    }
}

/** Under mitosis, every replica root must match the primary. */
void
expectReplicasCoherent(Side &side, const std::string &what)
{
    if (!side.proc.roots().replicated())
        return;
    analysis::PtAnalyzer analyzer(side.machine.physmem(),
                                  side.kernel.ptOps());
    std::uint64_t primary =
        analyzer.snapshot(side.proc.roots()).totalLeafPtes();
    for (SocketId s = 0; s < side.machine.numSockets(); ++s) {
        EXPECT_EQ(
            analyzer.snapshotFor(side.proc.roots(), s).totalLeafPtes(),
            primary)
            << what << " replica socket " << s;
    }
}

void
runProperty(BackendKind kind, std::uint64_t seed)
{
    Side life(kind);
    Side ref(kind);
    RefExecutor refx(ref.kernel, ref.proc);
    Rng rng(seed);

    struct Region
    {
        VirtAddr start;
        std::uint64_t pages;
        bool thp;
    };
    // Two THP regions of two 2 MB ranges each, one 4 KB region.
    std::vector<Region> regions = {
        {Base, 2 * FramesPerLargePage, true},
        {Base + (64ull << 20), 2 * FramesPerLargePage, true},
        {Base + (128ull << 20), 96, false},
    };

    for (const Region &r : regions) {
        MmapOptions opts{.populate = false, .thp = r.thp,
                         .prot = ProtRead | ProtWrite};
        life.kernel.mmapFixed(life.proc, r.start, r.pages * PageSize,
                              opts);
        ref.kernel.mmapFixed(ref.proc, r.start, r.pages * PageSize,
                             opts);
        // Populate 4 KB-first: collapse needs something to promote.
        std::uint64_t chunk = std::min<std::uint64_t>(r.pages, 64);
        life.kernel.populate(life.proc, r.start, chunk * PageSize, 0);
        refx.populate(r.start, chunk * PageSize);
    }
    expectSidesEq(life, ref, "after layout");

    for (int step = 0; step < 60; ++step) {
        std::string what = "step " + std::to_string(step);
        const Region &r = regions[rng.below(regions.size())];
        std::uint64_t page0 = rng.below(r.pages);
        std::uint64_t len = (1 + rng.below(r.pages - page0)) * PageSize;
        VirtAddr start = r.start + page0 * PageSize;

        switch (rng.below(6)) {
          case 0: { // populate a subrange
            life.kernel.populate(life.proc, start, len, 0);
            refx.populate(start, len);
            break;
          }
          case 1: { // munmap a subrange, then map it back
            life.kernel.munmap(life.proc, start, len);
            refx.munmap(start, len);
            expectSidesEq(life, ref, what + " after munmap");
            MmapOptions opts{.populate = false, .thp = r.thp,
                             .prot = ProtRead | ProtWrite};
            life.kernel.mmapFixed(life.proc, start, len, opts);
            ref.kernel.mmapFixed(ref.proc, start, len, opts);
            break;
          }
          case 2: { // mprotect a subrange
            std::uint64_t prot = rng.chance(0.5)
                                     ? std::uint64_t{ProtRead}
                                     : ProtRead | ProtWrite;
            life.kernel.mprotect(life.proc, start, len, prot);
            refx.mprotect(start, len, prot);
            break;
          }
          case 3: { // toggle THP eligibility
            bool enable = rng.chance(0.5);
            life.kernel.madvise(life.proc, start, len,
                                enable ? Madvise::Huge
                                       : Madvise::NoHuge);
            refx.madvise(start, len, enable);
            break;
          }
          case 4: { // collapse a random 2 MB range
            if (!r.thp)
                break;
            VirtAddr base =
                r.start + rng.below(r.pages / FramesPerLargePage) *
                              LargePageSize;
            if (life.kernel.thp().collapseAt(life.proc, base,
                                             nullptr)) {
                refx.collapse(base);
            }
            break;
          }
          default: { // split whatever huge page covers `start`
            if (life.kernel.thp().splitAt(life.proc, start, nullptr))
                refx.split(start);
            break;
          }
        }
        if (step % 6 == 0) {
            expectSidesEq(life, ref, what);
            expectReplicasCoherent(life, what);
        }
        if (::testing::Test::HasFailure())
            return;
    }
    expectSidesEq(life, ref, "final");
    expectReplicasCoherent(life, "final");

    for (const Region &r : regions) {
        life.kernel.munmap(life.proc, r.start, r.pages * PageSize);
        refx.munmap(r.start, r.pages * PageSize);
    }
    expectSidesEq(life, ref, "after teardown");

    life.kernel.destroyProcess(life.proc);
    ref.kernel.destroyProcess(ref.proc);
}

TEST(ThpProperty, NativeLifecycleMatchesPerPageReference)
{
    runProperty(BackendKind::Native, 1);
}

TEST(ThpProperty, MitosisLifecycleMatchesPerPageReference)
{
    runProperty(BackendKind::Mitosis, 2);
}

TEST(ThpProperty, MoreSeeds)
{
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
        runProperty(BackendKind::Native, seed);
        if (::testing::Test::HasFailure())
            return;
        runProperty(BackendKind::Mitosis, seed + 100);
        if (::testing::Test::HasFailure())
            return;
    }
}

/**
 * Property 2: daemon recovery never loses a mapping, conserves the
 * physical accounting, and only grows 2 MB coverage.
 */
void
runRecoveryProperty(BackendKind kind, std::uint64_t seed)
{
    Rng rng(seed);
    sim::Machine machine(sim::MachineConfig::tiny());
    pvops::NativeBackend native(machine.physmem());
    core::MitosisBackend mitosis(machine.physmem());
    KernelConfig cfg;
    cfg.thp.splitPartial = true;
    cfg.thp.khugepaged = true;
    cfg.thp.kcompactd = true;
    Kernel kernel(machine,
                  kind == BackendKind::Native
                      ? static_cast<pvops::PvOps &>(native)
                      : static_cast<pvops::PvOps &>(mitosis),
                  cfg);
    Process &p = kernel.createProcess("recover", 0);
    if (kind == BackendKind::Mitosis)
        mitosis.setReplicationMask(p.roots(), p.id(),
                                   SocketMask::all(2));

    Rng frag(seed ^ 0xfeedull);
    for (SocketId s = 0; s < machine.numSockets(); ++s)
        machine.physmem().fragment(s, 1.0, frag);

    kernel.mmapFixed(p, Base, 8 * LargePageSize,
                     MmapOptions{.thp = true});
    // Sparse random residency.
    for (int i = 0; i < 200; ++i) {
        VirtAddr va =
            Base + rng.below(8 * FramesPerLargePage) * PageSize;
        kernel.populate(p, alignDown(va, PageSize), PageSize, 0);
    }

    // Shadow of what must stay mapped.
    std::map<VirtAddr, bool> shadow;
    kernel.ptOps().forEachLeaf(
        p.roots(), [&](VirtAddr va, pt::PteLoc, pt::Pte,
                       PageSizeKind) { shadow[va] = true; });

    double cov = kernel.thp().coverage(p);
    for (int tick = 0; tick < 12; ++tick) {
        kernel.thpTick();
        std::string what = "tick " + std::to_string(tick);

        double now = kernel.thp().coverage(p);
        EXPECT_GE(now + 1e-12, cov) << what;
        cov = now;

        std::uint64_t mapped_units = 0;
        kernel.ptOps().forEachLeaf(
            p.roots(),
            [&](VirtAddr, pt::PteLoc, pt::Pte pte, PageSizeKind size) {
                std::uint64_t n = size == PageSizeKind::Large2M
                                      ? FramesPerLargePage
                                      : 1;
                mapped_units += n;
                const mem::PhysicalMemory &pm = machine.physmem();
                if (size == PageSizeKind::Large2M) {
                    EXPECT_EQ(pm.largeOwner(pte.pfn()), p.id()) << what;
                    return;
                }
                const mem::PageMeta &meta = pm.meta(pte.pfn());
                EXPECT_EQ(meta.type, mem::FrameType::Data) << what;
                EXPECT_EQ(meta.owner, p.id()) << what;
            });
        std::uint64_t accounted = 0;
        for (SocketId s = 0; s < machine.numSockets(); ++s) {
            accounted += machine.physmem().stats(s).dataPages +
                         machine.physmem().stats(s).dataLargePages *
                             FramesPerLargePage;
        }
        EXPECT_EQ(accounted, mapped_units) << what;

        for (const auto &[va, _] : shadow) {
            EXPECT_TRUE(
                kernel.ptOps().walk(p.roots(), va).mapped)
                << what << " lost va 0x" << std::hex << va;
        }
        if (kind == BackendKind::Mitosis) {
            analysis::PtAnalyzer analyzer(machine.physmem(),
                                          kernel.ptOps());
            std::uint64_t primary =
                analyzer.snapshot(p.roots()).totalLeafPtes();
            for (SocketId s = 0; s < machine.numSockets(); ++s) {
                EXPECT_EQ(analyzer.snapshotFor(p.roots(), s)
                              .totalLeafPtes(),
                          primary)
                    << what;
            }
        }
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(kernel.thp().stats().collapses, 0u);
    kernel.destroyProcess(p);
}

TEST(ThpRecoveryProperty, Native)
{
    runRecoveryProperty(BackendKind::Native, 21);
}

TEST(ThpRecoveryProperty, Mitosis)
{
    runRecoveryProperty(BackendKind::Mitosis, 22);
}

} // namespace
} // namespace mitosim::os
