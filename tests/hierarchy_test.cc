/**
 * @file
 * Unit tests for sim::MemoryHierarchy: the latency ladder (L1D, local L3,
 * remote L3, local/remote DRAM), interference effects and counter
 * attribution.
 */

#include <gtest/gtest.h>

#include "src/sim/memory_hierarchy.h"

namespace mitosim::sim
{
namespace
{

struct Rig
{
    Rig()
        : topo([] {
              numa::TopologyConfig cfg;
              cfg.numSockets = 2;
              cfg.coresPerSocket = 2;
              cfg.memPerSocket = 16ull << 20;
              return cfg;
          }()),
          hier(topo, HierarchyConfig{})
    {
    }

    PhysAddr
    addrOn(SocketId s, std::uint64_t offset = 0)
    {
        return pfnToAddr(topo.firstPfnOf(s)) + offset;
    }

    numa::Topology topo;
    MemoryHierarchy hier;
};

TEST(Hierarchy, ColdAccessPaysLocalDram)
{
    Rig r;
    HierarchyConfig cfg;
    PerfCounters pc;
    Cycles lat = r.hier.access(0, r.addrOn(0), false, AccessKind::Data,
                               &pc);
    EXPECT_EQ(lat, cfg.l1dHitLatency + cfg.l3HitLatency + 280);
    EXPECT_EQ(pc.dataDramLocal, 1u);
    EXPECT_EQ(pc.dataDramRemote, 0u);
}

TEST(Hierarchy, ColdRemoteAccessPaysRemoteDram)
{
    Rig r;
    HierarchyConfig cfg;
    PerfCounters pc;
    Cycles lat = r.hier.access(0, r.addrOn(1), false, AccessKind::Data,
                               &pc);
    EXPECT_EQ(lat, cfg.l1dHitLatency + cfg.l3HitLatency + 580);
    EXPECT_EQ(pc.dataDramRemote, 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    Rig r;
    HierarchyConfig cfg;
    PerfCounters pc;
    r.hier.access(0, r.addrOn(1), false, AccessKind::Data, &pc);
    Cycles lat = r.hier.access(0, r.addrOn(1), false, AccessKind::Data,
                               &pc);
    EXPECT_EQ(lat, cfg.l1dHitLatency);
    EXPECT_EQ(pc.l1dHits, 1u);
}

TEST(Hierarchy, SocketMateHitsSharedL3)
{
    Rig r;
    HierarchyConfig cfg;
    PerfCounters pc0;
    PerfCounters pc1;
    r.hier.access(0, r.addrOn(0), false, AccessKind::Data, &pc0);
    // Core 1 shares socket 0's L3 but has its own L1.
    Cycles lat = r.hier.access(1, r.addrOn(0), false, AccessKind::Data,
                               &pc1);
    EXPECT_EQ(lat, cfg.l1dHitLatency + cfg.l3HitLatency);
    EXPECT_EQ(pc1.l3LocalHits, 1u);
}

TEST(Hierarchy, RemoteL3ProbeBeatsRemoteDram)
{
    Rig r;
    HierarchyConfig cfg;
    PerfCounters pc;
    // Socket 1's core warms socket 1's L3 with a home line.
    r.hier.access(2, r.addrOn(1), false, AccessKind::Data, nullptr);
    // Socket 0's core then finds it in the remote (home) L3.
    Cycles lat = r.hier.access(0, r.addrOn(1), false, AccessKind::Data,
                               &pc);
    EXPECT_EQ(lat, cfg.l1dHitLatency + cfg.l3RemoteHitLatency);
    EXPECT_EQ(pc.l3RemoteHits, 1u);
    EXPECT_LT(lat, cfg.l1dHitLatency + cfg.l3HitLatency + 580u);
}

TEST(Hierarchy, InterferenceThrashesHomeL3AndDelaysDram)
{
    Rig r;
    HierarchyConfig cfg;
    // Warm socket 1's L3 before the interferer arrives.
    r.hier.access(2, r.addrOn(1), false, AccessKind::Data, nullptr);
    r.topo.addInterferer(1);
    PerfCounters pc;
    Cycles lat = r.hier.access(0, r.addrOn(1), false, AccessKind::Data,
                               &pc);
    // Remote L3 probe is suppressed; DRAM pays the contention factor.
    EXPECT_EQ(lat, cfg.l1dHitLatency + cfg.l3HitLatency + 1160u);
    EXPECT_EQ(pc.l3RemoteHits, 0u);
}

TEST(Hierarchy, InterferedSocketLosesItsOwnL3)
{
    Rig r;
    HierarchyConfig cfg;
    r.topo.addInterferer(0);
    PerfCounters pc;
    r.hier.access(0, r.addrOn(0), false, AccessKind::Data, &pc);
    // L1 still works (per-core), but L3 misses every time: evict L1 by
    // streaming, then re-access.
    for (PhysAddr a = PageSize; a < PageSize + (64ull << 10);
         a += LineSize) {
        r.hier.access(0, r.addrOn(0, a), false, AccessKind::Data,
                      nullptr);
    }
    Cycles lat = r.hier.access(0, r.addrOn(0), false, AccessKind::Data,
                               &pc);
    EXPECT_EQ(lat, cfg.l1dHitLatency + cfg.l3HitLatency + 560u);
}

TEST(Hierarchy, PageTableKindAttributesToPtCounters)
{
    Rig r;
    PerfCounters pc;
    r.hier.access(0, r.addrOn(1), false, AccessKind::PageTable, &pc);
    EXPECT_EQ(pc.ptDramRemote, 1u);
    EXPECT_EQ(pc.dataDramRemote, 0u);
    r.hier.access(0, r.addrOn(0, 0x10000), false, AccessKind::PageTable,
                  &pc);
    EXPECT_EQ(pc.ptDramLocal, 1u);
}

TEST(Hierarchy, RemotePtFractionCounter)
{
    Rig r;
    PerfCounters pc;
    r.hier.access(0, r.addrOn(1), false, AccessKind::PageTable, &pc);
    r.hier.access(0, r.addrOn(0, 0x40000), false, AccessKind::PageTable,
                  &pc);
    EXPECT_NEAR(pc.remotePtFraction(), 0.5, 1e-9);
}

} // namespace
} // namespace mitosim::sim
