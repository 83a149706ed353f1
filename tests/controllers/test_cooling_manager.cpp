/**
 * @file
 * Tests for the Cooling Manager: temperature tracking, energy
 * accounting, and composition with the power-management stack (less IT
 * power must mean less cooling energy, with no explicit interface).
 */

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "controllers/cooling_manager.h"
#include "core/coordinator.h"
#include "core/scenarios.h"
#include "trace/workload.h"

namespace {

using namespace nps;
using controllers::CoolingManager;

sim::CoolingZoneParams
zoneParams()
{
    sim::CoolingZoneParams p;
    p.thermal_mass = 300.0;
    p.crac_capacity = 2000.0;
    return p;
}

/** One zone covering the whole small cluster. */
std::vector<sim::CoolingZone>
wholeClusterZone(const sim::Cluster &cluster)
{
    std::vector<sim::ServerId> members;
    for (const auto &srv : cluster.servers())
        members.push_back(srv.id());
    std::vector<sim::CoolingZone> zones;
    zones.emplace_back("room", std::move(members), zoneParams());
    return zones;
}

TEST(CoolingManager, TracksTemperatureTarget)
{
    auto cluster = nps_test::smallCluster(0.4);
    CoolingManager cm(cluster, wholeClusterZone(cluster), {});
    for (size_t t = 0; t < 4000; ++t) {
        cluster.evaluateTick(t);
        cm.observe(t);
        if (t > 0 && t % cm.period() == 0)
            cm.step(t);
    }
    EXPECT_NEAR(cm.hottestZone(), 27.0, 1.5);
    EXPECT_FALSE(cm.anyRedline());
    EXPECT_GT(cm.coolingEnergy(), 0.0);
}

TEST(CoolingManager, RespondsToLoadStep)
{
    auto cluster = nps_test::smallCluster(0.2);
    CoolingManager cm(cluster, wholeClusterZone(cluster), {});
    auto drive = [&](size_t from, size_t to) {
        for (size_t t = from; t < to; ++t) {
            cluster.evaluateTick(t);
            cm.observe(t);
            if (t > 0 && t % cm.period() == 0)
                cm.step(t);
        }
    };
    drive(0, 2000);
    double cool_power = cm.lastCoolingPower();
    // Demand triples: the CRACs must ramp extraction (and electricity).
    for (sim::VmId j = 0; j < cluster.numVms(); ++j)
        cluster.replaceVm(j, nps_test::flatTrace("hot", 0.8, 8));
    drive(2000, 5000);
    EXPECT_GT(cm.lastCoolingPower(), cool_power * 1.2);
    EXPECT_NEAR(cm.hottestZone(), 27.0, 2.0);
}

TEST(CoolingManager, LessItPowerMeansLessCoolingEnergy)
{
    // The composition claim: the cooling side follows the power side
    // with no explicit coordination interface.
    auto run = [&](bool managed) {
        trace::GeneratorConfig gen;
        gen.trace_length = 1440;
        trace::WorkloadLibrary lib(gen);
        core::Coordinator c(managed ? core::coordinatedConfig()
                                    : core::baselineConfig(),
                            sim::Topology{12, 2, 4}, model::bladeA(),
                            [&] {
                                auto t = lib.mix(trace::Mix::Mid60);
                                t.resize(12);
                                return t;
                            }());
        std::vector<sim::ServerId> members;
        for (const auto &srv : c.cluster().servers())
            members.push_back(srv.id());
        std::vector<sim::CoolingZone> zones;
        zones.emplace_back("room", std::move(members), zoneParams());
        auto cm = std::make_shared<CoolingManager>(
            c.cluster(), std::move(zones), CoolingManager::Params{});
        c.engine().addActor(cm);
        c.run(1440);
        return std::pair<double, double>(c.summary().energy,
                                         cm->coolingEnergy());
    };
    auto [it_managed, cool_managed] = run(true);
    auto [it_base, cool_base] = run(false);
    EXPECT_LT(it_managed, it_base);
    EXPECT_LT(cool_managed, cool_base * 0.95);
}

TEST(CoolingManager, ConstructionValidation)
{
    auto cluster = nps_test::smallCluster(0.3);
    EXPECT_DEATH(CoolingManager(cluster, {}, {}), "no cooling zones");

    std::vector<sim::CoolingZone> bad;
    bad.emplace_back("z", std::vector<sim::ServerId>{99}, zoneParams());
    EXPECT_DEATH(CoolingManager(cluster, std::move(bad), {}),
                 "outside the cluster");

    std::vector<sim::CoolingZone> zone2;
    zone2.emplace_back("z", std::vector<sim::ServerId>{0}, zoneParams());
    CoolingManager::Params p;
    p.target_c = 50.0;  // above the 35 C redline
    EXPECT_DEATH(CoolingManager(cluster, std::move(zone2), p),
                 "redline");

    std::vector<sim::CoolingZone> zone3;
    zone3.emplace_back("z", std::vector<sim::ServerId>{0}, zoneParams());
    CoolingManager::Params q;
    q.gain = 0.0;
    EXPECT_DEATH(CoolingManager(cluster, std::move(zone3), q), "gain");
}

TEST(CoolingManager, ActorInterface)
{
    auto cluster = nps_test::smallCluster(0.3);
    CoolingManager cm(cluster, wholeClusterZone(cluster), {});
    EXPECT_EQ(cm.name(), "CM");
    EXPECT_EQ(cm.period(), 10u);
    EXPECT_EQ(cm.zones().size(), 1u);
}

} // namespace
