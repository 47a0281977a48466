/**
 * @file
 * The PV-Ops store/read charge invariant: for every backend (native,
 * Mitosis, lazy Mitosis) under every UpdateMode, a run of n stores
 * through setPtes leaves the same tables, replica rings and backend
 * statistics as n one-entry setPte calls, and charges the same
 * KernelCost except where UpdateMode::Batched amortizes the replica
 * locate per (replica, table); readPteMany(n) charges n readPte calls.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/lazy_backend.h"
#include "src/core/mitosis.h"
#include "src/mem/physical_memory.h"
#include "src/pt/operations.h"
#include "src/pvops/native_backend.h"

namespace mitosim::pvops
{
namespace
{

enum class Kind
{
    Native,
    Mitosis,
    Lazy,
};

using core::UpdateMode;

constexpr SocketId Sockets = 4;
constexpr ProcId Owner = 1;
constexpr VirtAddr Base = 0x100000000ull;
constexpr int Regions = 4; //!< consecutive 2 MB regions mapped

numa::TopologyConfig
smallTopo()
{
    numa::TopologyConfig cfg;
    cfg.numSockets = Sockets;
    cfg.coresPerSocket = 2;
    cfg.memPerSocket = 16ull << 20;
    return cfg;
}

/**
 * One machine with one replicated process. Worlds built with the same
 * (kind, mode) are identical frame for frame, so two of them can take
 * the same stores through different hooks and be compared.
 */
struct World
{
    World(Kind kind, UpdateMode mode) : topo(smallTopo()), pm(topo)
    {
        core::MitosisConfig cfg;
        cfg.updateMode = mode;
        switch (kind) {
          case Kind::Native:
            backend = std::make_unique<NativeBackend>(pm);
            break;
          case Kind::Mitosis:
            backend = std::make_unique<core::MitosisBackend>(pm, cfg);
            break;
          case Kind::Lazy:
            backend = std::make_unique<core::LazyMitosisBackend>(pm, cfg);
            break;
        }
        ops = std::make_unique<pt::PageTableOps>(pm, *backend);
        EXPECT_TRUE(ops->createRoot(roots, Owner, 0, nullptr));
        // Even slots of each region's leaf table mapped, odd ones empty.
        for (int r = 0; r < Regions; ++r) {
            for (unsigned k = 0; k < 16; k += 2) {
                VirtAddr va = Base + r * LargePageSize + k * PageSize;
                EXPECT_TRUE(ops->map4K(roots, Owner, va, frame(r % Sockets),
                                       pt::PteWrite, policy, 0, nullptr));
            }
        }
        if (auto *m = mitosis()) {
            EXPECT_TRUE(m->setReplicationMask(roots, Owner,
                                              SocketMask::all(Sockets)));
        }
    }

    ~World() { ops->destroy(roots, nullptr); }

    core::MitosisBackend *
    mitosis()
    {
        return dynamic_cast<core::MitosisBackend *>(backend.get());
    }

    core::LazyMitosisBackend *
    lazy()
    {
        return dynamic_cast<core::LazyMitosisBackend *>(backend.get());
    }

    Pfn
    frame(SocketId s)
    {
        auto pfn = pm.allocData(s, Owner);
        EXPECT_TRUE(pfn.has_value());
        return *pfn;
    }

    /** The leaf-table slot of @p va, and its L2 parent slot. */
    pt::PteLoc leafLoc(VirtAddr va) const { return ops->walk(roots, va).loc; }

    pt::PteLoc
    dirLoc(VirtAddr va) const
    {
        Pfn dir = ops->tableFor(roots, va, 2);
        return pt::PteLoc{dir, ptIndex(va, ptLevel(2))};
    }

    /**
     * The stores under test: over leaf slots [0, n) of region 0,
     * installs into the empty odd slots (queued by the lazy backend),
     * a permission change on each mapped even slot (eager everywhere)
     * and one unmap; and over the L2 slots of all regions, a rewrite of
     * each child pointer (which replicas localize to their own child).
     */
    struct Run
    {
        pt::PteLoc loc;
        int level;
        std::vector<pt::Pte> values;
    };

    std::vector<Run>
    runs(unsigned n)
    {
        Run leaf{leafLoc(Base), 1, {}};
        for (unsigned k = 0; k < n; ++k) {
            pt::Pte cur{pm.tableView(leaf.loc.ptPfn)[leaf.loc.index + k]};
            if (k == 4)
                leaf.values.push_back(pt::Pte{});
            else if (cur.present())
                leaf.values.push_back(cur.withFlags(pt::PteNumaHint));
            else
                leaf.values.push_back(pt::Pte::make(
                    frame(static_cast<SocketId>(k % Sockets)),
                    pt::PtePresent | pt::PteWrite | pt::PteUser));
        }
        Run dir{dirLoc(Base), 2, {}};
        for (int r = 0; r < Regions; ++r)
            dir.values.push_back(
                pt::Pte{pm.tableView(dir.loc.ptPfn)[dir.loc.index + r]});
        return {leaf, dir};
    }

    /** Non-primary copies of @p table. */
    int
    replicasOf(Pfn table) const
    {
        return pm.replicaCount(table) - 1;
    }

    numa::Topology topo;
    mem::PhysicalMemory pm;
    std::unique_ptr<PvOps> backend;
    std::unique_ptr<pt::PageTableOps> ops;
    pt::RootSet roots;
    pt::PtPlacementPolicy policy;
};

void
expectCostEq(const KernelCost &a, const KernelCost &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.pteWrites, b.pteWrites);
    EXPECT_EQ(a.replicaWrites, b.replicaWrites);
    EXPECT_EQ(a.replicaHops, b.replicaHops);
    EXPECT_EQ(a.ptPagesAllocated, b.ptPagesAllocated);
    EXPECT_EQ(a.ptPagesFreed, b.ptPagesFreed);
}

/** Same replica rings, same words in every copy, same backend stats. */
void
expectSameState(World &a, World &b, Pfn table)
{
    std::vector<Pfn> ring_a;
    std::vector<Pfn> ring_b;
    a.pm.forEachReplica(table, [&](Pfn p) { ring_a.push_back(p); });
    b.pm.forEachReplica(table, [&](Pfn p) { ring_b.push_back(p); });
    ASSERT_EQ(ring_a, ring_b);
    for (Pfn p : ring_a)
        EXPECT_EQ(std::memcmp(a.pm.tableView(p), b.pm.tableView(p),
                              PtEntriesPerPage * sizeof(std::uint64_t)),
                  0)
            << "replica " << p << " differs";
    if (a.mitosis()) {
        EXPECT_EQ(std::memcmp(&a.mitosis()->stats(), &b.mitosis()->stats(),
                              sizeof(core::MitosisStats)),
                  0);
    }
    if (a.lazy()) {
        EXPECT_EQ(std::memcmp(&a.lazy()->lazyStats(), &b.lazy()->lazyStats(),
                              sizeof(core::LazyStats)),
                  0);
        for (SocketId s = 0; s < Sockets; ++s)
            EXPECT_EQ(a.lazy()->pendingFor(s), b.lazy()->pendingFor(s));
    }
}

class PvOpsStoreTest
    : public ::testing::TestWithParam<std::tuple<Kind, UpdateMode>>
{
  protected:
    Kind kind() const { return std::get<0>(GetParam()); }
    UpdateMode mode() const { return std::get<1>(GetParam()); }
};

TEST_P(PvOpsStoreTest, RunEqualsOneEntryStores)
{
    constexpr unsigned N = 12;
    World run(kind(), mode());
    World single(kind(), mode());
    for (const World::Run &r : run.runs(N)) {
        SCOPED_TRACE("level " + std::to_string(r.level));
        KernelCost run_cost;
        run.backend->setPtes(run.roots, r.loc, r.values.data(),
                             static_cast<unsigned>(r.values.size()), r.level,
                             &run_cost);
        KernelCost single_cost;
        for (unsigned k = 0; k < r.values.size(); ++k)
            single.backend->setPte(single.roots,
                                   pt::PteLoc{r.loc.ptPfn, r.loc.index + k},
                                   r.values[k], r.level, &single_cost);
        expectSameState(run, single, r.loc.ptPfn);
        if (kind() == Kind::Lazy && r.level == 1) {
            EXPECT_GT(run.lazy()->lazyStats().queued, 0u);
            EXPECT_GT(run.lazy()->lazyStats().eagerFallbacks, 0u);
        }

        auto replicas =
            static_cast<std::uint64_t>(run.replicasOf(r.loc.ptPfn));
        if (kind() != Kind::Native) {
            ASSERT_EQ(replicas, Sockets - 1u);
        }
        if (mode() != UpdateMode::Batched || kind() == Kind::Native) {
            expectCostEq(run_cost, single_cost);
            continue;
        }
        // Batched: the replica locate is charged once per (replica,
        // table) for the run; the stores themselves are not amortized.
        EXPECT_EQ(run_cost.replicaHops, replicas);
        EXPECT_EQ(run_cost.pteWrites, single_cost.pteWrites);
        EXPECT_EQ(run_cost.replicaWrites, single_cost.replicaWrites);
        EXPECT_LT(run_cost.cycles, single_cost.cycles);
        if (kind() == Kind::Mitosis) {
            EXPECT_EQ(single_cost.replicaHops, replicas * r.values.size());
        }
    }
}

TEST_P(PvOpsStoreTest, ReadManyChargesNReads)
{
    World w(kind(), mode());
    for (const World::Run &r : w.runs(12)) {
        for (unsigned k = 0; k < r.values.size(); ++k) {
            pt::PteLoc loc{r.loc.ptPfn, r.loc.index + k};
            for (unsigned n : {1u, 3u, 512u}) {
                core::MitosisStats before =
                    w.mitosis() ? w.mitosis()->stats() : core::MitosisStats{};
                KernelCost each;
                pt::Pte value;
                for (unsigned i = 0; i < n; ++i)
                    value = w.backend->readPte(w.roots, loc, &each);
                std::uint64_t merged_each =
                    w.mitosis() ? w.mitosis()->stats().adMergedReads -
                                      before.adMergedReads
                                : 0;
                KernelCost many;
                EXPECT_EQ(w.backend->readPteMany(w.roots, loc, n, &many).raw(),
                          value.raw());
                expectCostEq(many, each);
                if (w.mitosis()) {
                    EXPECT_EQ(w.mitosis()->stats().adMergedReads -
                                  before.adMergedReads,
                              2 * merged_each);
                }
            }
        }
    }
}

std::string
paramName(const ::testing::TestParamInfo<std::tuple<Kind, UpdateMode>> &info)
{
    static const char *const kinds[] = {"Native", "Mitosis", "Lazy"};
    static const char *const modes[] = {"CircularList", "WalkReplicas",
                                        "Batched"};
    return std::string(kinds[static_cast<int>(std::get<0>(info.param))]) +
           "_" + modes[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PvOpsStoreTest,
    ::testing::Combine(::testing::Values(Kind::Native, Kind::Mitosis,
                                         Kind::Lazy),
                       ::testing::Values(UpdateMode::CircularList,
                                         UpdateMode::WalkReplicas,
                                         UpdateMode::Batched)),
    paramName);

} // namespace
} // namespace mitosim::pvops
