#include "vmcheck.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "src/base/logging.h"
#include "src/core/lazy_backend.h"
#include "src/core/mitosis.h"
#include "src/os/kernel.h"

namespace mitosim::check
{

const char *
checkClassName(CheckClass cls)
{
    switch (cls) {
      case CheckClass::ReplicaCoherence:
        return "replica-coherence";
      case CheckClass::VmaPteAgreement:
        return "vma-pte";
      case CheckClass::FrameAccounting:
        return "frame-accounting";
      case CheckClass::Cr3AsidLiveness:
        return "cr3-asid-liveness";
      case CheckClass::ChargeConservation:
        return "charge-conservation";
    }
    return "unknown";
}

std::string
Violation::str() const
{
    std::string s = format("%s:", checkClassName(cls));
    if (pid >= 0)
        s += format(" pid=%d", pid);
    if (vaEnd > vaStart)
        s += format(" va=[0x%llx,0x%llx)", (unsigned long long)vaStart,
                    (unsigned long long)vaEnd);
    if (socket != InvalidSocket)
        s += format(" socket=%d", socket);
    if (!expected.empty())
        s += format(" expected=%s", expected.c_str());
    if (!actual.empty())
        s += format(" actual=%s", actual.c_str());
    if (!detail.empty())
        s += format(" (%s)", detail.c_str());
    return s;
}

CheckConfig
CheckConfig::fromEnv(CheckConfig base)
{
    if (const char *v = std::getenv("MITOSIM_CHECK"))
        base.enabled = !(v[0] == '0' && v[1] == '\0');
    if (const char *v = std::getenv("MITOSIM_CHECK_LEVEL")) {
        std::string level(v);
        if (level == "syscall")
            base.atDispatch = false;
        else if (level == "dispatch")
            base.atDispatch = true;
        else
            fatal("MITOSIM_CHECK_LEVEL: unknown level '%s' "
                  "(want syscall|dispatch)",
                  v);
    }
    return base;
}

Checker::Checker(os::Kernel &kernel, const CheckConfig &config)
    : k(kernel), cfg(config)
{
}

void
Checker::report(Violation v)
{
    ++stats_.violations;
    found.push_back(v);
    if (cfg.failFast)
        fatal("vmcheck[%s] %s", where_, v.str().c_str());
    warn("vmcheck[%s] %s", where_, v.str().c_str());
}

void
Checker::atSyscall(const char *what)
{
    runAll(what);
}

void
Checker::atThpTick()
{
    runAll("thp-tick");
}

void
Checker::atDispatch()
{
    if (!cfg.atDispatch)
        return;
    if (++dispatchCount % DispatchEveryN != 0)
        return;
    runAll("dispatch");
}

void
Checker::atEndOfRun()
{
    runAll("end-of-run");
}

std::size_t
Checker::runAll(const char *where)
{
    ++stats_.checkpoints;
    where_ = where;
    std::size_t before = found.size();
    checkReplicaCoherence();
    checkVmaPteAgreement();
    checkFrameAccounting();
    checkCr3AsidLiveness();
    checkChargeConservation();
    return found.size() - before;
}

// ---------------------------------------------------------------------
// 1. Replica coherence
// ---------------------------------------------------------------------

void
Checker::checkReplicaCoherence()
{
    ++stats_.checksRun;
    const auto &pm = k.machine().physmem();
    auto *lazy = dynamic_cast<core::LazyMitosisBackend *>(&k.backend());

    for (os::Process *p : k.liveProcesses()) {
        const pt::RootSet &roots = p->roots();
        if (roots.primaryRoot == InvalidPfn)
            continue;
        for (SocketId s = 0; s < k.machine().numSockets(); ++s) {
            Pfn root = roots.rootFor(s);
            if (root == roots.primaryRoot)
                continue;
            if (pm.replicaOnSocket(roots.primaryRoot, s) != root) {
                report({CheckClass::ReplicaCoherence, p->id(), 0, 0, s,
                        "per-socket root in primary's replica ring",
                        format("pfn %llu", (unsigned long long)root),
                        "RootSet::perSocketRoot points outside the "
                        "replica set"});
                continue;
            }
            bool pending = lazy && lazy->pendingFor(s) > 0;
            compareTables(*p, s, roots.primaryRoot, root, 4, 0, pending);
        }
    }
}

void
Checker::compareTables(os::Process &proc, SocketId socket, Pfn primary,
                       Pfn replica, int level, VirtAddr base,
                       bool lazy_pending)
{
    if (primary == replica)
        return; // degraded allocation: the socket shares this frame
    const auto &pm = k.machine().physmem();
    ++stats_.replicaTablesCompared;
    const std::uint64_t *tbl_p = pm.tableView(primary);
    const std::uint64_t *tbl_r = pm.tableView(replica);
    std::uint64_t span = bytesPerEntry(ptLevel(level));

    for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
        pt::Pte ep{tbl_p[i]};
        pt::Pte er{tbl_r[i]};
        VirtAddr va = base + i * span;
        if (ep.present() != er.present()) {
            // A lazily-propagating backend queues installs per socket;
            // a replica missing an entry is legal while updates are
            // pending for that socket. Present-entry changes are eager
            // by the lazy rule, so everything else stays strict.
            if (lazy_pending)
                continue;
            report({CheckClass::ReplicaCoherence, proc.id(), va, va + span,
                    socket, ep.present() ? "present" : "non-present",
                    er.present() ? "present" : "non-present",
                    format("L%d entry %u diverges between primary pfn "
                           "%llu and replica pfn %llu",
                           level, i, (unsigned long long)primary,
                           (unsigned long long)replica)});
            continue;
        }
        if (!ep.present())
            continue;

        // Hardware walkers write A/D bits into the replica they walked
        // (§5.4: the read path ORs them), so compare modulo A/D.
        std::uint64_t flags_p = ep.raw() & ~(pt::PtePfnMask | pt::PteAdMask);
        std::uint64_t flags_r = er.raw() & ~(pt::PtePfnMask | pt::PteAdMask);
        if (flags_p != flags_r) {
            report({CheckClass::ReplicaCoherence, proc.id(), va, va + span,
                    socket, format("flags 0x%llx",
                                   (unsigned long long)flags_p),
                    format("flags 0x%llx", (unsigned long long)flags_r),
                    format("L%d entry %u flag divergence", level, i)});
            continue;
        }

        bool leaf = (level == 1) || (level == 2 && ep.huge());
        if (leaf) {
            ++stats_.leavesChecked;
            // Data frames are shared by all replicas: copied verbatim.
            if (ep.pfn() != er.pfn()) {
                report({CheckClass::ReplicaCoherence, proc.id(), va,
                        va + span, socket,
                        format("data pfn %llu",
                               (unsigned long long)ep.pfn()),
                        format("data pfn %llu",
                               (unsigned long long)er.pfn()),
                        "leaf entries must reference the same frame"});
            }
            continue;
        }

        // Non-leaf: each copy references the child replica local to its
        // own socket when one exists (semantic replication, §2.3), and
        // falls back to a cross-socket link after a degraded
        // allocation — either way both sides must name members of the
        // *same* replica ring.
        bool in_ring = false;
        pm.forEachReplica(ep.pfn(), [&](Pfn member) {
            if (member == er.pfn())
                in_ring = true;
        });
        if (!in_ring) {
            report({CheckClass::ReplicaCoherence, proc.id(), va, va + span,
                    socket,
                    format("child in replica ring of pfn %llu",
                           (unsigned long long)ep.pfn()),
                    format("pfn %llu", (unsigned long long)er.pfn()),
                    format("L%d entry %u links outside the child's "
                           "replica set",
                           level, i)});
            continue;
        }
        compareTables(proc, socket, ep.pfn(), er.pfn(), level - 1, va,
                      lazy_pending);
    }
}

// ---------------------------------------------------------------------
// 2. VMA <-> PTE agreement
// ---------------------------------------------------------------------

void
Checker::checkVmaPteAgreement()
{
    ++stats_.checksRun;
    for (os::Process *p : k.liveProcesses()) {
        k.ptOps().forEachLeaf(
            p->roots(),
            [&](VirtAddr va, pt::PteLoc, pt::Pte pte, PageSizeKind size) {
                ++stats_.leavesChecked;
                std::uint64_t span = size == PageSizeKind::Large2M
                                         ? LargePageSize
                                         : PageSize;
                VirtAddr end = va + span;
                // Every present leaf must lie inside VMA coverage.
                // (The reverse — every VMA page being mapped — is NOT
                // an invariant: demand paging leaves VMAs unbacked.)
                VirtAddr cur = va;
                const os::Vma *only = nullptr;
                int vma_count = 0;
                bool hole = false;
                while (cur < end) {
                    const os::Vma *vma = p->findVma(cur);
                    if (!vma) {
                        report({CheckClass::VmaPteAgreement, p->id(), va,
                                end, InvalidSocket, "VMA covering leaf",
                                format("no VMA at va=0x%llx",
                                       (unsigned long long)cur),
                                "mapped PTE outside any VMA"});
                        hole = true;
                        break;
                    }
                    only = vma;
                    ++vma_count;
                    cur = vma->end;
                }
                if (hole)
                    return;
                // Protection agreement: a writable PTE in a read-only
                // VMA would let the simulated MMU skip a fault the VMA
                // metadata promises. The inverse (read-only PTE in a
                // writable VMA) is the legal lazy-upgrade state the
                // Protection fault path resolves. Huge leaves spanning
                // several VMAs are skipped: with splitPartial off, a
                // partial mprotect legally rewrites the whole leaf
                // while splitting only the VMA.
                if (vma_count == 1 && pte.writable() &&
                    !(only->prot & os::ProtWrite)) {
                    report({CheckClass::VmaPteAgreement, p->id(), va, end,
                            InvalidSocket, "read-only PTE (VMA lacks "
                            "ProtWrite)",
                            "writable PTE",
                            "PTE grants write the VMA forbids"});
                }
            });
    }
}

// ---------------------------------------------------------------------
// 3. Frame accounting
// ---------------------------------------------------------------------

namespace
{

enum class Reach : std::uint8_t
{
    Pt,
    Data,
    LargeHead,
};

const char *
reachName(Reach r)
{
    switch (r) {
      case Reach::Pt:
        return "page-table";
      case Reach::Data:
        return "4K data";
      case Reach::LargeHead:
        return "2M page";
    }
    return "?";
}

} // namespace

void
Checker::checkFrameAccounting()
{
    ++stats_.checksRun;
    const auto &pm = k.machine().physmem();

    // Phase 1: walk every process's page-tables (full replica rings)
    // and leaves, recording what each reached frame must be; a 2 MB
    // leaf marks its head frame only. Marks are reserved for one per
    // allocated frame, a 2 MB page counting once, which a consistent
    // machine never exceeds, so the vector does not grow by doubling.
    struct Mark
    {
        Pfn pfn;
        Reach reach;
        ProcId pid;
    };
    std::vector<Mark> marks;
    std::uint64_t allocated = 0;
    for (SocketId s = 0; s < k.machine().numSockets(); ++s) {
        std::uint64_t used = pm.allocator(s).totalFrames() - pm.freeFrames(s);
        std::uint64_t tails =
            (FramesPerLargePage - 1) * pm.stats(s).dataLargePages;
        allocated += used > tails ? used - tails : 0;
    }
    marks.reserve(allocated);
    std::unordered_set<ProcId> live_pids;
    auto mark = [&](Pfn pfn, Reach r, ProcId pid) {
        marks.push_back({pfn, r, pid});
    };

    for (os::Process *p : k.liveProcesses()) {
        live_pids.insert(p->id());
        if (p->roots().primaryRoot == InvalidPfn)
            continue;
        k.ptOps().forEachTable(p->roots(), [&](Pfn pt_pfn, int) {
            pm.forEachReplica(pt_pfn, [&](Pfn member) {
                mark(member, Reach::Pt, p->id());
            });
        });
        k.ptOps().forEachLeaf(
            p->roots(),
            [&](VirtAddr, pt::PteLoc, pt::Pte pte, PageSizeKind size) {
                mark(pte.pfn(),
                     size == PageSizeKind::Large2M ? Reach::LargeHead
                                                   : Reach::Data,
                     p->id());
            });
    }

    // Sort by pfn. The sort is stable, so the first mark of a pfn is
    // its first-reached owner, the one a second owner is reported
    // against (two-owner reports come in pfn order).
    std::stable_sort(marks.begin(), marks.end(),
                     [](const Mark &a, const Mark &b) {
                         return a.pfn < b.pfn;
                     });
    for (std::size_t i = 1, first = 0; i < marks.size(); ++i) {
        if (marks[i].pfn != marks[first].pfn) {
            first = i;
            continue;
        }
        const Mark &m = marks[i];
        report({CheckClass::FrameAccounting, m.pid, 0, 0,
                pm.socketOf(m.pfn),
                format("single owner (first reached as %s by pid %d)",
                       reachName(marks[first].reach), marks[first].pid),
                format("reached again as %s", reachName(m.reach)),
                format("pfn %llu has two owners",
                       (unsigned long long)m.pfn)});
    }

    // Phase 2: sweep the physical frames and reconcile allocator
    // state, the 2 MB page records, the pin bitmap, PageMeta and
    // reachability, merging in the sorted marks. The allocator's bitmap
    // is read a 64-frame word at a time. A block with a 2 MB record is
    // checked once, from its 8 bitmap words. In a metadata chunk never
    // materialized every frame reads pristine Free, so only allocated,
    // pinned or reached frames can be at fault there and the sweep
    // visits just those: its cost follows the frames in use, not the
    // machine size. Frames are visited in pfn order either way, so
    // reports come in the same order.
    //
    // A 2 MB record's block must be fully allocated, keep pristine
    // PageMeta in every frame, and be reached by exactly one mark: a
    // 2 MB leaf at its head.
    const mem::PageMeta pristine{};
    auto check_large = [&](Pfn head, ProcId owner, SocketId s,
                           const mem::FrameAllocator &alloc, auto &next) {
        std::uint64_t missing = 0;
        for (Pfn w = head; w < head + FramesPerLargePage; w += 64) {
            missing += static_cast<std::uint64_t>(std::popcount(
                ~alloc.usedWord((w - alloc.firstPfn()) >> 6)));
        }
        stats_.framesAccounted += FramesPerLargePage - missing;
        if (missing) {
            report({CheckClass::FrameAccounting, owner, 0, 0, s,
                    "fully allocated block",
                    format("%llu frames free", (unsigned long long)missing),
                    format("2M page record at pfn %llu on a block the "
                           "allocator has partly freed",
                           (unsigned long long)head)});
        }
        if (pm.metaMaterialized(head)) {
            for (Pfn p = head; p < head + FramesPerLargePage; ++p) {
                const mem::PageMeta &m = pm.meta(p);
                if (m == pristine)
                    continue;
                report({CheckClass::FrameAccounting, owner, 0, 0, s,
                        "pristine PageMeta",
                        format("type %d owner %d", (int)m.type, m.owner),
                        format("pfn %llu of the 2M page at pfn %llu has "
                               "its own metadata",
                               (unsigned long long)p,
                               (unsigned long long)head)});
                break;
            }
        }
        bool reached = false;
        for (Pfn last = InvalidPfn;
             next != marks.end() && next->pfn < head + FramesPerLargePage;
             last = next->pfn, ++next) {
            if (next->pfn == last)
                continue; // a second owner, reported in phase 1
            if (next->pfn == head && next->reach == Reach::LargeHead) {
                reached = true;
                continue;
            }
            report({CheckClass::FrameAccounting, next->pid, 0, 0, s,
                    "2M leaf at the head", reachName(next->reach),
                    format("page-tables reference pfn %llu inside the 2M "
                           "page at pfn %llu",
                           (unsigned long long)next->pfn,
                           (unsigned long long)head)});
        }
        if (!reached && live_pids.count(owner)) {
            report({CheckClass::FrameAccounting, owner, 0, 0, s,
                    "reachable from owner's leaves", "orphaned",
                    format("2M page at pfn %llu unreachable from pid %d's "
                           "page-tables",
                           (unsigned long long)head, owner)});
        }
    };
    for (SocketId s = 0; s < k.machine().numSockets(); ++s) {
        const mem::FrameAllocator &alloc = pm.allocator(s);
        Pfn base = alloc.firstPfn();
        Pfn limit = base + alloc.totalFrames();
        auto next = std::lower_bound(
            marks.begin(), marks.end(), base,
            [](const Mark &m, Pfn pfn) { return m.pfn < pfn; });
        for (Pfn word = base; word < limit; word += 64) {
            if (ProcId owner = pm.largeOwner(word); owner != -1) {
                check_large(word, owner, s, alloc, next);
                word += FramesPerLargePage - 64;
                continue;
            }
            std::uint64_t used = alloc.usedWord((word - base) >> 6);
            std::uint64_t pins = pm.pinWord(word);
            std::uint64_t visit = ~0ull;
            if (!pm.metaMaterialized(word)) {
                visit = used | pins;
                for (auto m = next; m != marks.end() && m->pfn < word + 64;
                     ++m)
                    visit |= 1ull << (m->pfn - word);
            }
            for (; visit != 0; visit &= visit - 1) {
                unsigned bit = static_cast<unsigned>(std::countr_zero(visit));
                Pfn pfn = word + bit;
                const mem::PageMeta &m = pm.meta(pfn);
                const Mark *it = nullptr;
                if (next != marks.end() && next->pfn == pfn) {
                    it = &*next;
                    while (next != marks.end() && next->pfn == pfn)
                        ++next;
                }
                if (it && it->reach == Reach::LargeHead) {
                    report({CheckClass::FrameAccounting, it->pid, 0, 0, s,
                            "2M page record", "no record",
                            format("2M leaf maps pfn %llu, a block with "
                                   "no 2M page record",
                                   (unsigned long long)pfn)});
                }
                bool allocated = (used >> bit) & 1;
                bool pinned = (pins >> bit) & 1;
                if (!allocated) {
                    if (!m.isFree()) {
                        report({CheckClass::FrameAccounting, m.owner, 0, 0, s,
                                "FrameType::Free",
                                format("type %d", (int)m.type),
                                format("pfn %llu free in the allocator but "
                                       "typed as in-use",
                                       (unsigned long long)pfn)});
                    }
                    if (it) {
                        report({CheckClass::FrameAccounting, it->pid,
                                0, 0, s, "allocated frame",
                                "free frame",
                                format("page-tables reference freed pfn %llu "
                                       "as %s",
                                       (unsigned long long)pfn,
                                       reachName(it->reach))});
                    }
                    if (pinned) {
                        report({CheckClass::FrameAccounting, -1, 0, 0, s,
                                "allocated filler", "free frame",
                                format("pin bit set on pfn %llu, free in "
                                       "the allocator",
                                       (unsigned long long)pfn)});
                    }
                    continue;
                }
                ++stats_.framesAccounted;
                if (pinned) {
                    // A fragmentation filler: allocated, its metadata left
                    // Free, and invisible to page-tables.
                    if (!m.isFree()) {
                        report({CheckClass::FrameAccounting, m.owner, 0, 0, s,
                                "FrameType::Free",
                                format("type %d", (int)m.type),
                                format("pinned pfn %llu typed as in-use",
                                       (unsigned long long)pfn)});
                    }
                    if (it) {
                        report({CheckClass::FrameAccounting, it->pid,
                                0, 0, s, "unreferenced filler frame",
                                reachName(it->reach),
                                format("page-tables reference pinned pfn "
                                       "%llu",
                                       (unsigned long long)pfn)});
                    }
                    continue;
                }
                switch (m.type) {
                  case mem::FrameType::Free:
                    report({CheckClass::FrameAccounting, m.owner, 0, 0, s,
                            "in-use frame type",
                            "FrameType::Free",
                            format("pfn %llu allocated but typed Free",
                                   (unsigned long long)pfn)});
                    break;
                  case mem::FrameType::Reserved:
                    // The one legal reserve is the per-socket PT page
                    // cache, invisible to page-tables; charge
                    // conservation checks its size. (Fragmentation
                    // fillers are typed Free and handled above.)
                    if (it) {
                        report({CheckClass::FrameAccounting, it->pid,
                                0, 0, s, "unreferenced reserve frame",
                                reachName(it->reach),
                                format("page-tables reference reserved pfn "
                                       "%llu",
                                       (unsigned long long)pfn)});
                    }
                    break;
                  case mem::FrameType::PageTable:
                    if (!m.hasTable()) {
                        report({CheckClass::FrameAccounting, m.owner, 0, 0, s,
                                "host-backed table storage",
                                "null", format("PT pfn %llu has no storage",
                                               (unsigned long long)pfn)});
                    }
                    if (!it) {
                        // Frames of processes this kernel does not know
                        // (another kernel sharing the machine) cannot be
                        // classified; orphans are only provable for our
                        // own live processes.
                        if (live_pids.count(m.owner)) {
                            report({CheckClass::FrameAccounting, m.owner, 0,
                                    0, s, "reachable from owner's tables",
                                    "orphaned",
                                    format("PT pfn %llu (L%d) unreachable "
                                           "from pid %d's replica rings",
                                           (unsigned long long)pfn, m.level,
                                           m.owner)});
                        }
                    } else if (it->reach != Reach::Pt) {
                        report({CheckClass::FrameAccounting, it->pid,
                                0, 0, s, "page-table reference",
                                reachName(it->reach),
                                format("pfn %llu typed PageTable but mapped "
                                       "as data",
                                       (unsigned long long)pfn)});
                    }
                    break;
                  case mem::FrameType::Data:
                    if (!it) {
                        if (live_pids.count(m.owner)) {
                            report({CheckClass::FrameAccounting, m.owner, 0,
                                    0, s, "reachable from owner's leaves",
                                    "orphaned",
                                    format("data pfn %llu unreachable from "
                                           "pid %d's page-tables",
                                           (unsigned long long)pfn,
                                           m.owner)});
                        }
                    } else if (it->reach == Reach::Pt) {
                        // (A 2 MB leaf here was reported above.)
                        report({CheckClass::FrameAccounting, it->pid, 0, 0,
                                s, reachName(Reach::Data),
                                reachName(it->reach),
                                format("pfn %llu size-class confusion",
                                       (unsigned long long)pfn)});
                    }
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. CR3 / ASID liveness
// ---------------------------------------------------------------------

void
Checker::checkCr3AsidLiveness()
{
    ++stats_.checksRun;
    auto &mach = k.machine();
    const auto &pm = mach.physmem();
    std::vector<os::Process *> procs = k.liveProcesses();

    auto owner_of_root = [&](Pfn cr3) -> os::Process * {
        for (os::Process *p : procs) {
            if (p->roots().primaryRoot == InvalidPfn)
                continue;
            bool member = false;
            pm.forEachReplica(p->roots().primaryRoot, [&](Pfn m) {
                if (m == cr3)
                    member = true;
            });
            if (member)
                return p;
        }
        return nullptr;
    };

    // Loaded CR3s must point into a live process's root replica ring
    // (both modes: dead processes park their cores in removeProcess).
    for (CoreId c = 0; c < mach.numCores(); ++c) {
        sim::Core &core = mach.core(c);
        if (!core.hasContext())
            continue;
        Pfn cr3 = core.cr3();
        os::Process *owner = owner_of_root(cr3);
        if (!owner) {
            report({CheckClass::Cr3AsidLiveness, -1, 0, 0,
                    mach.topology().socketOfCore(c),
                    "CR3 in a live process's root ring",
                    format("pfn %llu", (unsigned long long)cr3),
                    format("core %d holds a dangling CR3", c)});
            continue;
        }
        const mem::PageMeta &m = pm.meta(cr3);
        if (!m.isPageTable() || m.level != 4) {
            report({CheckClass::Cr3AsidLiveness, owner->id(), 0, 0,
                    mach.topology().socketOfCore(c),
                    "live L4 page-table frame",
                    format("type %d level %d", (int)m.type, m.level),
                    format("core %d CR3 pfn %llu", c,
                           (unsigned long long)cr3)});
        }
        if (core.asid() != owner->asid) {
            report({CheckClass::Cr3AsidLiveness, owner->id(), 0, 0,
                    mach.topology().socketOfCore(c),
                    format("ASID %u", owner->asid),
                    format("ASID %u", core.asid()),
                    format("core %d ASID does not match the resident "
                           "address space",
                           c)});
        }
    }

    // Entry-level TLB/PWC checks need the time-shared flush discipline:
    // the pinned seed legally leaves stale tagged entries on cores a
    // process migrated away from (removeProcess only parks owned cores,
    // and migrateThreads clears vacated contexts without flushing
    // elsewhere).
    if (!k.scheduler().timeShared())
        return;

    std::unordered_map<Asid, os::Process *> live_asid;
    for (os::Process *p : procs)
        live_asid.emplace(p->asid, p);

    for (CoreId c = 0; c < mach.numCores(); ++c) {
        sim::Core &core = mach.core(c);
        SocketId cs = mach.topology().socketOfCore(c);

        core.tlb().forEachEntry([&](VirtAddr va, Asid asid,
                                    const tlb::TlbEntry &entry) {
            auto it = live_asid.find(asid);
            if (it == live_asid.end()) {
                report({CheckClass::Cr3AsidLiveness, -1, va,
                        va + (entry.size == PageSizeKind::Large2M
                                  ? LargePageSize
                                  : PageSize),
                        cs, "live ASID",
                        format("dead ASID %u", asid),
                        format("core %d TLB entry outlived its address "
                               "space",
                               c)});
                return;
            }
            // The entry must agree with the owner's current mapping:
            // any PTE change (unmap, migrate, collapse, split) must
            // have shot this entry down before a checkpoint runs.
            os::Process *p = it->second;
            pt::WalkResult w = k.ptOps().walk(p->roots(), va);
            std::uint64_t span = entry.size == PageSizeKind::Large2M
                                     ? LargePageSize
                                     : PageSize;
            if (!w.mapped) {
                report({CheckClass::Cr3AsidLiveness, p->id(), va,
                        va + span, cs, "mapped leaf",
                        "unmapped va",
                        format("core %d TLB entry for a torn-down "
                               "mapping",
                               c)});
                return;
            }
            Pfn expect;
            if (w.size == PageSizeKind::Large2M) {
                expect = entry.size == PageSizeKind::Large2M
                             ? w.leaf.pfn()
                             : w.leaf.pfn() +
                                   ((va >> PageShift) &
                                    (FramesPerLargePage - 1));
            } else {
                if (entry.size == PageSizeKind::Large2M) {
                    report({CheckClass::Cr3AsidLiveness, p->id(), va,
                            va + span, cs, "4K translation",
                            "stale 2M TLB entry",
                            format("core %d entry survived a huge-page "
                                   "split",
                                   c)});
                    return;
                }
                expect = w.leaf.pfn();
            }
            if (entry.pfn != expect) {
                report({CheckClass::Cr3AsidLiveness, p->id(), va,
                        va + span, cs,
                        format("pfn %llu", (unsigned long long)expect),
                        format("pfn %llu", (unsigned long long)entry.pfn),
                        format("core %d TLB entry maps a stale frame",
                               c)});
                return;
            }
            if (entry.writable && !w.leaf.writable()) {
                report({CheckClass::Cr3AsidLiveness, p->id(), va,
                        va + span, cs, "read-only translation",
                        "writable TLB entry",
                        format("core %d entry grants revoked write "
                               "access",
                               c)});
            }
        });

        core.pwc().forEachEntry([&](Pfn cr3, Asid asid, int level,
                                    Pfn table_pfn) {
            auto it = live_asid.find(asid);
            if (it == live_asid.end()) {
                report({CheckClass::Cr3AsidLiveness, -1, 0, 0, cs,
                        "live ASID", format("dead ASID %u", asid),
                        format("core %d PWC entry outlived its address "
                               "space",
                               c)});
                return;
            }
            os::Process *p = it->second;
            bool root_live = false;
            if (p->roots().primaryRoot != InvalidPfn) {
                pm.forEachReplica(p->roots().primaryRoot, [&](Pfn m) {
                    if (m == cr3)
                        root_live = true;
                });
            }
            if (!root_live) {
                report({CheckClass::Cr3AsidLiveness, p->id(), 0, 0, cs,
                        "PWC tag CR3 in the owner's root ring",
                        format("pfn %llu", (unsigned long long)cr3),
                        format("core %d PWC entry tagged with a freed "
                               "root",
                               c)});
                return;
            }
            const mem::PageMeta &m = pm.meta(table_pfn);
            if (!m.isPageTable() || m.level != level) {
                report({CheckClass::Cr3AsidLiveness, p->id(), 0, 0, cs,
                        format("live L%d page-table frame", level),
                        format("type %d level %d", (int)m.type, m.level),
                        format("core %d PWC entry references pfn %llu",
                               c, (unsigned long long)table_pfn)});
            }
        });
    }
}

// ---------------------------------------------------------------------
// 5. Charge conservation
// ---------------------------------------------------------------------

void
Checker::checkChargeConservation()
{
    ++stats_.checksRun;
    const auto &pm = k.machine().physmem();

    for (SocketId s = 0; s < k.machine().numSockets(); ++s) {
        const mem::FrameAllocator &alloc = pm.allocator(s);
        Pfn base = alloc.firstPfn();
        Pfn limit = base + alloc.totalFrames();
        std::uint64_t n_data = 0;
        std::uint64_t n_large = 0;
        std::uint64_t n_pt = 0;
        std::uint64_t n_reserved = 0;
        std::uint64_t n_alloc = 0;
        // Allocated frames only, a bitmap word at a time; a 2 MB page
        // counts once, from its record.
        for (Pfn word = base; word < limit; word += 64) {
            std::uint64_t used = alloc.usedWord((word - base) >> 6);
            n_alloc += static_cast<std::uint64_t>(std::popcount(used));
            if (pm.largeOwner(word) != -1) {
                n_large += word % FramesPerLargePage == 0;
                continue;
            }
            for (; used != 0; used &= used - 1) {
                const mem::PageMeta &m =
                    pm.meta(word + static_cast<unsigned>(
                                       std::countr_zero(used)));
                switch (m.type) {
                  case mem::FrameType::Data:
                    ++n_data;
                    break;
                  case mem::FrameType::PageTable:
                    ++n_pt;
                    break;
                  case mem::FrameType::Reserved:
                    ++n_reserved;
                    break;
                  default:
                    break;
                }
            }
        }

        const mem::MemStats &st = pm.stats(s);
        auto mismatch = [&](const char *what, std::uint64_t counted,
                            std::uint64_t claimed) {
            if (counted == claimed)
                return;
            report({CheckClass::ChargeConservation, -1, 0, 0, s,
                    format("%llu", (unsigned long long)counted),
                    format("%llu", (unsigned long long)claimed),
                    format("MemStats.%s disagrees with a full frame "
                           "recount",
                           what)});
        };
        mismatch("dataPages", n_data, st.dataPages);
        mismatch("dataLargePages", n_large, st.dataLargePages);
        mismatch("ptPages", n_pt, st.ptPages);
        if (n_reserved != pm.ptCacheSize(s)) {
            report({CheckClass::ChargeConservation, -1, 0, 0, s,
                    format("%llu", (unsigned long long)pm.ptCacheSize(s)),
                    format("%llu", (unsigned long long)n_reserved),
                    "PT reserve cache size disagrees with the Reserved "
                    "frame count"});
        }
        std::uint64_t by_level = 0;
        for (int level = 1; level <= 4; ++level)
            by_level += pm.ptPagesAt(s, level);
        if (by_level != st.ptPages) {
            report({CheckClass::ChargeConservation, -1, 0, 0, s,
                    format("%llu", (unsigned long long)st.ptPages),
                    format("%llu", (unsigned long long)by_level),
                    "per-level PT counters do not sum to ptPages"});
        }
        if (n_alloc + alloc.freeFrames() != alloc.totalFrames()) {
            report({CheckClass::ChargeConservation, -1, 0, 0, s,
                    format("%llu", (unsigned long long)alloc.totalFrames()),
                    format("%llu allocated + %llu free",
                           (unsigned long long)n_alloc,
                           (unsigned long long)alloc.freeFrames()),
                    "allocator free-count drifted from its bitmap"});
        }
    }

    // Mitosis replica-page conservation: pages created minus freed must
    // equal the live replica population reachable from this kernel's
    // processes (valid because a backend serves exactly one kernel).
    if (auto *mb = dynamic_cast<core::MitosisBackend *>(&k.backend())) {
        std::uint64_t live_replicas = 0;
        for (os::Process *p : k.liveProcesses()) {
            if (p->roots().primaryRoot == InvalidPfn)
                continue;
            k.ptOps().forEachTable(p->roots(), [&](Pfn pt_pfn, int) {
                live_replicas += static_cast<std::uint64_t>(
                    pm.replicaCount(pt_pfn) - 1);
            });
        }
        const core::MitosisStats &ms = mb->stats();
        std::uint64_t net =
            ms.replicaPagesCreated - ms.replicaPagesFreed;
        if (net != live_replicas) {
            report({CheckClass::ChargeConservation, -1, 0, 0,
                    InvalidSocket,
                    format("%llu live replica pages",
                           (unsigned long long)live_replicas),
                    format("created %llu - freed %llu = %llu",
                           (unsigned long long)ms.replicaPagesCreated,
                           (unsigned long long)ms.replicaPagesFreed,
                           (unsigned long long)net),
                    "backend replica-page counters do not match the "
                    "live population"});
        }
    }

    // Fault-path cycle ledger: the per-kind buckets (accumulated inside
    // each handleFault case) must sum to the totals (accumulated once
    // at return) — a fault kind that forgets its bucket breaks this.
    Cycles sum = 0;
    for (Cycles bucket : faultBuckets)
        sum += bucket;
    if (sum != faultTotal) {
        report({CheckClass::ChargeConservation, -1, 0, 0, InvalidSocket,
                format("%llu total fault cycles",
                       (unsigned long long)faultTotal),
                format("%llu across buckets", (unsigned long long)sum),
                "per-kind fault charges do not sum to the fault-path "
                "total"});
    }
}

void
Checker::noteFaultCharge(FaultCharge kind, Cycles cycles)
{
    faultBuckets[static_cast<int>(kind)] += cycles;
}

void
Checker::noteFaultTotal(Cycles cycles)
{
    faultTotal += cycles;
}

} // namespace mitosim::check
