/**
 * @file
 * Unit tests for numa::Topology: homing, latency matrix, interference.
 */

#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/numa/topology.h"

namespace mitosim::numa
{
namespace
{

TopologyConfig
smallConfig()
{
    TopologyConfig cfg;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 2;
    cfg.memPerSocket = 64ull << 20;
    return cfg;
}

TEST(Topology, CoreToSocketMapping)
{
    Topology t(smallConfig());
    EXPECT_EQ(t.numCores(), 8);
    EXPECT_EQ(t.socketOfCore(0), 0);
    EXPECT_EQ(t.socketOfCore(1), 0);
    EXPECT_EQ(t.socketOfCore(2), 1);
    EXPECT_EQ(t.socketOfCore(7), 3);
    EXPECT_EQ(t.firstCoreOf(2), 4);
}

TEST(Topology, PfnHomingIsContiguous)
{
    Topology t(smallConfig());
    std::uint64_t per = t.framesPerSocket();
    EXPECT_EQ(per, (64ull << 20) / PageSize);
    EXPECT_EQ(t.socketOfPfn(0), 0);
    EXPECT_EQ(t.socketOfPfn(per - 1), 0);
    EXPECT_EQ(t.socketOfPfn(per), 1);
    EXPECT_EQ(t.socketOfPfn(4 * per - 1), 3);
    EXPECT_EQ(t.firstPfnOf(3), 3 * per);
}

TEST(Topology, LatencyLocalVsRemote)
{
    Topology t(smallConfig());
    EXPECT_EQ(t.dramLatency(0, 0), 280u);
    EXPECT_EQ(t.dramLatency(0, 1), 580u);
    EXPECT_EQ(t.dramLatency(3, 3), 280u);
}

TEST(Topology, InterferenceDoublesLatency)
{
    Topology t(smallConfig());
    t.addInterferer(1);
    EXPECT_TRUE(t.hasInterferer(1));
    EXPECT_EQ(t.dramLatency(0, 1), 1160u); // 580 * 2.0
    EXPECT_EQ(t.dramLatency(1, 1), 560u);  // 280 * 2.0
    EXPECT_EQ(t.dramLatency(0, 0), 280u);  // untouched socket
    t.removeInterferer(1);
    EXPECT_FALSE(t.hasInterferer(1));
    EXPECT_EQ(t.dramLatency(0, 1), 580u);
}

TEST(Topology, InterferersAreRefcounted)
{
    Topology t(smallConfig());
    t.addInterferer(2);
    t.addInterferer(2);
    t.removeInterferer(2);
    EXPECT_TRUE(t.hasInterferer(2));
    t.removeInterferer(2);
    EXPECT_FALSE(t.hasInterferer(2));
}

TEST(Topology, RemoveWithoutAddPanics)
{
    Topology t(smallConfig());
    EXPECT_THROW(t.removeInterferer(0), SimError);
}

TEST(Topology, RejectsBadConfigs)
{
    TopologyConfig cfg = smallConfig();
    cfg.numSockets = 0;
    EXPECT_THROW(Topology{cfg}, SimError);

    cfg = smallConfig();
    cfg.coresPerSocket = 0;
    EXPECT_THROW(Topology{cfg}, SimError);

    cfg = smallConfig();
    cfg.memPerSocket = PageSize; // below one large page
    EXPECT_THROW(Topology{cfg}, SimError);

    cfg = smallConfig();
    cfg.interferenceFactor = 0.5;
    EXPECT_THROW(Topology{cfg}, SimError);
}

TEST(Topology, SingleSocketDegenerateCase)
{
    TopologyConfig cfg = smallConfig();
    cfg.numSockets = 1;
    Topology t(cfg);
    EXPECT_EQ(t.numCores(), 2);
    EXPECT_EQ(t.dramLatency(0, 0), 280u);
    EXPECT_EQ(t.socketOfPfn(t.totalFrames() - 1), 0);
}

TEST(Topology, PaperLatenciesAreDefault)
{
    // §8: "about 280 cycles latency ... 580 cycles" — keep the defaults
    // aligned with the paper so benches inherit them.
    TopologyConfig cfg;
    EXPECT_EQ(cfg.dramLocalLatency, 280u);
    EXPECT_EQ(cfg.dramRemoteLatency, 580u);
    EXPECT_EQ(cfg.numSockets, 4);
    EXPECT_EQ(cfg.coresPerSocket, 14);
}

} // namespace
} // namespace mitosim::numa
