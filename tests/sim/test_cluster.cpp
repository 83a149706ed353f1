/**
 * @file
 * Tests for the Cluster: topology building, budgets, placement, and
 * per-tick aggregation.
 */

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "sim/cluster.h"

namespace {

using namespace nps::sim;
using nps::model::bladeA;
using nps::model::serverB;

TEST(Topology, PaperShapes)
{
    auto t180 = Topology::paper180();
    EXPECT_EQ(t180.num_servers, 180u);
    EXPECT_EQ(t180.num_enclosures * t180.enclosure_size, 120u);
    auto t60 = Topology::paper60();
    EXPECT_EQ(t60.num_servers, 60u);
    EXPECT_EQ(t60.num_enclosures, 2u);
}

TEST(BudgetConfig, Labels)
{
    EXPECT_EQ(BudgetConfig::paper201510().label(), "20-15-10");
    EXPECT_EQ(BudgetConfig::paper252015().label(), "25-20-15");
    EXPECT_EQ(BudgetConfig::paper302520().label(), "30-25-20");
}

TEST(Cluster, TopologyStructure)
{
    auto cl = nps_test::smallCluster();
    EXPECT_EQ(cl.numServers(), 6u);
    EXPECT_EQ(cl.numEnclosures(), 1u);
    EXPECT_EQ(cl.numVms(), 6u);
    EXPECT_EQ(cl.enclosure(0).size(), 4u);
    ASSERT_EQ(cl.standaloneServers().size(), 2u);
    EXPECT_EQ(cl.standaloneServers()[0], 4u);
    EXPECT_EQ(cl.enclosureOf(0), 0u);
    EXPECT_EQ(cl.enclosureOf(5), Cluster::kNoEnclosure);
    EXPECT_TRUE(cl.enclosure(0).contains(3));
    EXPECT_FALSE(cl.enclosure(0).contains(4));
}

TEST(Cluster, Paper180Topology)
{
    Cluster cl(Topology::paper180(), bladeA(),
               nps_test::flatTraces(180, 0.2, 8),
               BudgetConfig::paper201510(), 0.1, 0.1);
    EXPECT_EQ(cl.numServers(), 180u);
    EXPECT_EQ(cl.numEnclosures(), 6u);
    EXPECT_EQ(cl.standaloneServers().size(), 60u);
}

TEST(Cluster, InitialPlacementOneToOne)
{
    auto cl = nps_test::smallCluster();
    for (VmId v = 0; v < cl.numVms(); ++v) {
        EXPECT_EQ(cl.serverOf(v), v);
        EXPECT_EQ(cl.server(v).vms().size(), 1u);
    }
}

TEST(Cluster, StaticBudgets)
{
    auto cl = nps_test::smallCluster();
    double max_one = bladeA().model().maxPower();
    EXPECT_NEAR(cl.serverMaxPower(0), max_one, 1e-12);
    EXPECT_NEAR(cl.capLoc(0), 0.9 * max_one, 1e-12);
    EXPECT_NEAR(cl.enclosureMaxPower(0), 4.0 * max_one, 1e-12);
    EXPECT_NEAR(cl.capEnc(0), 0.85 * 4.0 * max_one, 1e-12);
    EXPECT_NEAR(cl.groupMaxPower(), 6.0 * max_one, 1e-12);
    EXPECT_NEAR(cl.capGrp(), 0.8 * 6.0 * max_one, 1e-12);
}

TEST(Cluster, BudgetHierarchyTightens)
{
    // The enclosure cap must be tighter than the sum of its members'
    // local caps, and the group cap tighter still — that is what makes
    // multi-level capping a real problem.
    auto cl = nps_test::smallCluster();
    double sum_loc = 0.0;
    for (ServerId s : cl.enclosure(0).members())
        sum_loc += cl.capLoc(s);
    EXPECT_LT(cl.capEnc(0), sum_loc);
    double all_loc = 0.0;
    for (const auto &srv : cl.servers())
        all_loc += cl.capLoc(srv.id());
    EXPECT_LT(cl.capGrp(), all_loc);
}

TEST(Cluster, PlaceAndMigrate)
{
    auto cl = nps_test::smallCluster();
    cl.placeVm(0, 3);
    EXPECT_EQ(cl.serverOf(0), 3u);
    EXPECT_EQ(cl.server(3).vms().size(), 2u);
    EXPECT_TRUE(cl.server(0).vms().empty());
    EXPECT_FALSE(cl.vm(0).migrating(0));

    cl.migrateVm(1, 3, 0, 10);
    EXPECT_EQ(cl.serverOf(1), 3u);
    EXPECT_TRUE(cl.vm(1).migrating(5));
    EXPECT_FALSE(cl.vm(1).migrating(10));

    // Migrating to the current host is a no-op (no overhead restart).
    cl.migrateVm(0, 3, 0, 10);
    EXPECT_FALSE(cl.vm(0).migrating(0));
}

TEST(Cluster, EvaluateTickAggregates)
{
    auto cl = nps_test::smallCluster(0.3);
    const auto &tick = cl.evaluateTick(0);
    // 6 servers at load 0.33 at P0.
    double per_server = bladeA().model().powerAt(0, 0.33);
    EXPECT_NEAR(tick.total_power, 6.0 * per_server, 1e-9);
    ASSERT_EQ(tick.enclosure_power.size(), 1u);
    EXPECT_NEAR(tick.enclosure_power[0], 4.0 * per_server, 1e-9);
    EXPECT_NEAR(cl.lastEnclosurePower(0), 4.0 * per_server, 1e-9);
    EXPECT_NEAR(tick.demanded_useful, 6.0 * 0.3, 1e-12);
    EXPECT_NEAR(tick.served_useful, 6.0 * 0.3, 1e-12);
}

TEST(Cluster, ReplaceVmKeepsTheSharedSlot)
{
    auto cl = nps_test::smallCluster(0.3);
    cl.migrateVm(2, 3, 0, 10);
    cl.evaluateTick(0);
    cl.replaceVm(2, nps_test::flatTrace("hot", 0.6, 8));
    // Fresh state: no migration in flight, zeroed sensors.
    EXPECT_FALSE(cl.vm(2).migrating(1));
    EXPECT_EQ(cl.vmState().last_served[2], 0.0);
    EXPECT_EQ(cl.serverOf(2), 3u);
    // The next tick's outcome lands in the cluster's store, where the
    // per-VM folds read it.
    cl.evaluateTick(1);
    EXPECT_NEAR(cl.vm(2).lastServed(), 0.6, 1e-12);
    for (VmId j = 0; j < cl.numVms(); ++j) {
        EXPECT_EQ(cl.vmState().last_served[j], cl.vm(j).lastServed());
        EXPECT_EQ(cl.vmState().last_apparent_share[j],
                  cl.vm(j).lastApparentShare());
    }
    EXPECT_DEATH(cl.replaceVm(6, nps_test::flatTrace("x", 0.1, 8)),
                 "out of range");
}

TEST(Cluster, HeterogeneousSpecs)
{
    std::vector<std::shared_ptr<const nps::model::MachineSpec>> specs;
    auto blade = std::make_shared<const nps::model::MachineSpec>(bladeA());
    auto server = std::make_shared<const nps::model::MachineSpec>(
        serverB());
    for (unsigned i = 0; i < 6; ++i)
        specs.push_back(i % 2 ? blade : server);
    Cluster cl(Topology{6, 1, 4}, specs, nps_test::flatTraces(6, 0.2, 8),
               BudgetConfig::paper201510(), 0.1, 0.1);
    EXPECT_EQ(cl.server(0).spec().name(), "ServerB");
    EXPECT_EQ(cl.server(1).spec().name(), "BladeA");
    // Budgets follow each machine's own max power.
    EXPECT_GT(cl.capLoc(0), cl.capLoc(1));
}

TEST(Cluster, TooManyWorkloadsDie)
{
    EXPECT_DEATH(nps::sim::Cluster(Topology{2, 0, 0}, bladeA(),
                                   nps_test::flatTraces(3, 0.2, 8),
                                   BudgetConfig::paper201510(), 0.1, 0.1),
                 "exceed");
}

TEST(Cluster, BadTopologyDies)
{
    EXPECT_DEATH(nps::sim::Cluster(Topology{10, 3, 4}, bladeA(),
                                   nps_test::flatTraces(10, 0.2, 8),
                                   BudgetConfig::paper201510(), 0.1, 0.1),
                 "exceed");
}

TEST(Cluster, MismatchedSpecCountDies)
{
    std::vector<std::shared_ptr<const nps::model::MachineSpec>> specs;
    specs.push_back(std::make_shared<const nps::model::MachineSpec>(
        bladeA()));
    EXPECT_DEATH(nps::sim::Cluster(Topology{2, 0, 0}, specs,
                                   nps_test::flatTraces(2, 0.2, 8),
                                   BudgetConfig::paper201510(), 0.1, 0.1),
                 "specs");
}

TEST(Cluster, OutOfRangeAccessorsPanic)
{
    auto cl = nps_test::smallCluster();
    EXPECT_DEATH(cl.server(6), "out of range");
    EXPECT_DEATH(cl.enclosure(1), "out of range");
    EXPECT_DEATH(cl.vm(6), "out of range");
    EXPECT_DEATH(cl.serverOf(6), "out of range");
}

} // namespace
