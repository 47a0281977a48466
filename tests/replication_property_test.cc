/**
 * @file
 * Property-based tests of the Mitosis replication invariants under long
 * random operation sequences (map/unmap/protect/mask changes/migrations).
 *
 * Invariants checked after every batch:
 *  (a) translation equivalence: every replica tree translates every
 *      mapped VA to the same data frame with the same permission bits;
 *  (b) locality: every PT page of socket s's tree lives on socket s
 *      (when that socket is in the mask and allocation succeeded);
 *  (c) ring consistency: every PT page's replica ring contains exactly
 *      one page per replicated socket holding it;
 *  (d) conservation: destroying the process returns all frames.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/core/mitosis.h"
#include "src/mem/physical_memory.h"
#include "src/pt/operations.h"

namespace mitosim::core
{
namespace
{

struct ShadowEntry
{
    Pfn pfn;
    bool writable;
};

class ReplicationProperty : public ::testing::TestWithParam<int>
{
  protected:
    ReplicationProperty()
        : topo([] {
              numa::TopologyConfig cfg;
              cfg.numSockets = 4;
              cfg.coresPerSocket = 1;
              cfg.memPerSocket = 32ull << 20;
              return cfg;
          }()),
          pm(topo),
          backend(pm),
          ops(pm, backend)
    {
    }

    pt::Pte
    walkFrom(Pfn root, VirtAddr va)
    {
        Pfn table = root;
        for (int level = 4; level >= 1; --level) {
            pt::Pte e{pm.table(table)[ptIndex(va, ptLevel(level))]};
            if (!e.present())
                return pt::Pte{};
            if (level == 1 || (level == 2 && e.huge()))
                return e;
            table = e.pfn();
        }
        return pt::Pte{};
    }

    void
    checkInvariants(const pt::RootSet &roots,
                    const std::map<VirtAddr, ShadowEntry> &shadow)
    {
        // (a) translation equivalence against the shadow map, from every
        // socket's root.
        for (SocketId s = 0; s < topo.numSockets(); ++s) {
            Pfn root = roots.rootFor(s);
            for (const auto &[va, want] : shadow) {
                pt::Pte got = walkFrom(root, va);
                ASSERT_TRUE(got.present())
                    << "socket " << s << " lost va " << std::hex << va;
                ASSERT_EQ(got.pfn(), want.pfn);
                ASSERT_EQ(got.writable(), want.writable);
            }
        }

        // (b)+(c): walk the primary tree; check ring structure.
        std::vector<std::pair<Pfn, int>> stack{{roots.primaryRoot, 4}};
        while (!stack.empty()) {
            auto [table, level] = stack.back();
            stack.pop_back();

            // Ring: at most one replica per socket; ring size matches.
            std::map<SocketId, int> per_socket;
            pm.forEachReplica(table, [&](Pfn p) {
                ++per_socket[pm.socketOf(p)];
                ASSERT_EQ(pm.meta(p).level, level);
            });
            for (const auto &[s, n] : per_socket)
                ASSERT_EQ(n, 1) << "socket " << s << " has " << n
                                << " replicas of one page";
            for (SocketId s = roots.replicaMask.first();
                 s != InvalidSocket; s = roots.replicaMask.nextAfter(s)) {
                // (b) replica exists and is local (alloc never failed in
                // this test: memory is ample).
                Pfn rep = pm.replicaOnSocket(table, s);
                ASSERT_NE(rep, InvalidPfn);
                ASSERT_EQ(pm.socketOf(rep), s);
            }

            if (level == 1)
                continue;
            for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
                pt::Pte e{pm.table(table)[i]};
                if (e.present() && !(level == 2 && e.huge()))
                    stack.push_back({e.pfn(), level - 1});
            }
        }
    }

    numa::Topology topo;
    mem::PhysicalMemory pm;
    MitosisBackend backend;
    pt::PageTableOps ops;
};

TEST_P(ReplicationProperty, RandomOpsPreserveInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    pt::RootSet roots;
    pt::PtPlacementPolicy policy;

    std::vector<std::uint64_t> free_before;
    for (SocketId s = 0; s < topo.numSockets(); ++s)
        free_before.push_back(pm.freeFrames(s));

    ASSERT_TRUE(ops.createRoot(roots, 1, 0, nullptr));

    std::map<VirtAddr, ShadowEntry> shadow;
    std::vector<Pfn> data_frames;

    auto random_mapped_va = [&]() -> VirtAddr {
        if (shadow.empty())
            return 0;
        auto it = shadow.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.below(shadow.size())));
        return it->first;
    };

    for (int step = 0; step < 600; ++step) {
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2:
          case 3: { // map a fresh page somewhere sparse
            VirtAddr va = (rng.below(1u << 14)) * PageSize +
                          (rng.below(16)) * LargePageSize * 8;
            if (shadow.count(va))
                break;
            SocketId ds = static_cast<SocketId>(rng.below(4));
            auto pfn = pm.allocData(ds, 1);
            if (!pfn)
                break;
            bool writable = rng.chance(0.7);
            std::uint64_t flags =
                writable ? std::uint64_t{pt::PteWrite} : 0;
            ASSERT_TRUE(ops.map4K(roots, 1, va, *pfn, flags, policy,
                                  static_cast<SocketId>(rng.below(4)),
                                  nullptr));
            shadow[va] = {*pfn, writable};
            data_frames.push_back(*pfn);
            break;
          }
          case 4: { // unmap
            if (shadow.empty())
                break;
            VirtAddr va = random_mapped_va();
            auto res = ops.walk(roots, va);
            ASSERT_TRUE(res.mapped);
            ops.unmapRange(roots, va, va + PageSize,
                           [](VirtAddr, pt::Pte, PageSizeKind) {},
                           nullptr);
            pm.freeData(res.leaf.pfn());
            data_frames.erase(std::find(data_frames.begin(),
                                        data_frames.end(),
                                        res.leaf.pfn()));
            shadow.erase(va);
            break;
          }
          case 5: { // protect flip
            if (shadow.empty())
                break;
            VirtAddr va = random_mapped_va();
            bool writable = rng.chance(0.5);
            ASSERT_EQ(ops.protectRange(
                          roots, va, va + PageSize,
                          writable ? std::uint64_t{pt::PteWrite} : 0,
                          writable ? 0 : std::uint64_t{pt::PteWrite}, {},
                          nullptr),
                      1u);
            shadow[va].writable = writable;
            break;
          }
          case 6: { // change the replication mask
            SocketMask mask;
            for (SocketId s = 0; s < 4; ++s) {
                if (rng.chance(0.5))
                    mask.set(s);
            }
            ASSERT_TRUE(
                backend.setReplicationMask(roots, 1, mask, nullptr));
            break;
          }
          case 7: { // migrate the page-table to a random socket
            SocketId target = static_cast<SocketId>(rng.below(4));
            ASSERT_TRUE(backend.migratePageTables(roots, 1, target,
                                                  nullptr));
            break;
          }
          default: // simulate hardware A/D writes on a random replica
            if (!shadow.empty()) {
                VirtAddr va = random_mapped_va();
                SocketId s = static_cast<SocketId>(rng.below(4));
                Pfn root = roots.rootFor(s);
                Pfn table = root;
                bool ok = true;
                for (int level = 4; level > 1 && ok; --level) {
                    pt::Pte e{pm.table(
                        table)[ptIndex(va, ptLevel(level))]};
                    if (!e.present())
                        ok = false;
                    else
                        table = e.pfn();
                }
                if (ok) {
                    pm.table(table)[ptIndex(va, PtLevel::L1)] |=
                        pt::PteAccessed;
                    // The OS must see it from any replica.
                    pt::PteLoc loc = ops.walk(roots, va).loc;
                    pt::Pte merged = backend.readPte(roots, loc, nullptr);
                    ASSERT_TRUE(merged.accessed());
                    backend.clearAccessedDirty(roots, loc, pt::PteAdMask,
                                               nullptr);
                }
            }
            break;
        }

        if (step % 60 == 0)
            checkInvariants(roots, shadow);
    }
    checkInvariants(roots, shadow);

    // (d) conservation.
    for (Pfn pfn : data_frames)
        pm.freeData(pfn);
    ops.destroy(roots, nullptr);
    for (SocketId s = 0; s < topo.numSockets(); ++s)
        EXPECT_EQ(pm.freeFrames(s), free_before[static_cast<std::size_t>(
                                        s)]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationProperty,
                         ::testing::Range(1, 11));

} // namespace
} // namespace mitosim::core
