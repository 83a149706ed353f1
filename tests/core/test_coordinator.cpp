/**
 * @file
 * Tests for the Coordinator: controller stack construction per config,
 * wiring of the coordination channels, and basic runs.
 */

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "core/coordinator.h"
#include "core/scenarios.h"

namespace {

using namespace nps;
using core::Coordinator;

sim::Topology
smallTopo()
{
    return sim::Topology{6, 1, 4};
}

TEST(Coordinator, CoordinatedStackComplete)
{
    Coordinator c(core::coordinatedConfig(), smallTopo(),
                  model::bladeA(), nps_test::flatTraces(6, 0.3, 32));
    EXPECT_EQ(c.ecs().size(), 6u);
    EXPECT_EQ(c.sms().size(), 6u);
    EXPECT_EQ(c.ems().size(), 1u);
    EXPECT_NE(c.gm(), nullptr);
    EXPECT_NE(c.vmc(), nullptr);
    // EC and SM kernels (one actor each for all 6 servers) + 1 EM +
    // 1 GM + 1 VMC.
    EXPECT_EQ(c.engine().actors().size(), 5u);
}

TEST(Coordinator, BaselineStackEmpty)
{
    Coordinator c(core::baselineConfig(), smallTopo(), model::bladeA(),
                  nps_test::flatTraces(6, 0.3, 32));
    EXPECT_TRUE(c.ecs().empty());
    EXPECT_TRUE(c.sms().empty());
    EXPECT_TRUE(c.ems().empty());
    EXPECT_EQ(c.gm(), nullptr);
    EXPECT_EQ(c.vmc(), nullptr);
    EXPECT_TRUE(c.engine().actors().empty());
}

TEST(Coordinator, VmcOnlyStack)
{
    Coordinator c(core::scenarioConfig(core::Scenario::VmcOnly),
                  smallTopo(), model::bladeA(),
                  nps_test::flatTraces(6, 0.3, 32));
    EXPECT_TRUE(c.ecs().empty());
    EXPECT_TRUE(c.sms().empty());
    EXPECT_NE(c.vmc(), nullptr);
    EXPECT_EQ(c.engine().actors().size(), 1u);
}

TEST(Coordinator, CapStackAddsCappers)
{
    auto cfg = core::coordinatedConfig();
    cfg.enable_cap = true;
    Coordinator c(cfg, smallTopo(), model::bladeA(),
                  nps_test::flatTraces(6, 0.3, 32));
    // 5 actors + the CAP/fleet kernel over the 6 electrical cappers.
    EXPECT_EQ(c.engine().actors().size(), 6u);
    EXPECT_EQ(c.caps().size(), 6u);
}

TEST(Coordinator, MemStackAddsMemoryManagers)
{
    auto cfg = core::coordinatedConfig();
    cfg.enable_mem = true;
    Coordinator c(cfg, smallTopo(), model::bladeA(),
                  nps_test::flatTraces(6, 0.2, 64));
    EXPECT_EQ(c.mems().size(), 6u);
    // 5 actors + the MM/fleet kernel over the 6 memory managers.
    EXPECT_EQ(c.engine().actors().size(), 6u);
    c.run(200);
    // At 22% load every server is quiet: the managers engage.
    unsigned long engaged = 0;
    for (const auto &mm : c.mems())
        engaged += mm->engagements();
    EXPECT_GT(engaged, 0u);
}

TEST(Coordinator, CapAndMemStackRegistersTwoKernels)
{
    auto cfg = core::coordinatedConfig();
    cfg.enable_cap = true;
    cfg.enable_mem = true;
    Coordinator c(cfg, smallTopo(), model::bladeA(),
                  nps_test::flatTraces(6, 0.3, 32));
    // No per-server actor: EC, SM, CAP and MM kernels + EM + GM + VMC.
    ASSERT_EQ(c.engine().actors().size(), 7u);
    size_t kernels = 0;
    for (const auto &a : c.engine().actors()) {
        if (a->kind() == sim::Actor::Kind::Kernel)
            ++kernels;
        if (a->name() == "CAP/fleet") {
            EXPECT_EQ(a->period(), cfg.cap.period);
        }
        if (a->name() == "MM/fleet") {
            EXPECT_EQ(a->period(), cfg.mem.period);
        }
    }
    EXPECT_EQ(kernels, 4u);
}

TEST(Coordinator, GmWithoutEmsAdoptsAllServers)
{
    auto cfg = core::coordinatedConfig();
    cfg.enable_em = false;
    Coordinator c(cfg, smallTopo(), model::bladeA(),
                  nps_test::flatTraces(6, 0.3, 32));
    EXPECT_TRUE(c.ems().empty());
    EXPECT_NE(c.gm(), nullptr);
    c.run(120);  // runs without tripping any wiring panic
    EXPECT_EQ(c.summary().ticks, 120u);
}

TEST(Coordinator, BudgetsFollowConfig)
{
    auto cfg = core::withBudgets(core::coordinatedConfig(),
                                 sim::BudgetConfig::paper302520());
    Coordinator c(cfg, smallTopo(), model::bladeA(),
                  nps_test::flatTraces(6, 0.3, 32));
    EXPECT_NEAR(c.cluster().capGrp(),
                0.7 * c.cluster().groupMaxPower(), 1e-9);
    EXPECT_NEAR(c.sms()[0]->staticCap(), 0.8 * 85.0, 1e-9);
}

TEST(Coordinator, RunAccumulatesMetrics)
{
    Coordinator c(core::coordinatedConfig(), smallTopo(),
                  model::bladeA(), nps_test::flatTraces(6, 0.3, 32));
    c.run(50);
    c.run(50);
    EXPECT_EQ(c.summary().ticks, 100u);
    EXPECT_GT(c.summary().energy, 0.0);
}

TEST(Coordinator, HeterogeneousClusterRuns)
{
    std::vector<std::shared_ptr<const model::MachineSpec>> specs;
    auto blade = std::make_shared<const model::MachineSpec>(
        model::bladeA());
    auto server = std::make_shared<const model::MachineSpec>(
        model::serverB());
    for (unsigned i = 0; i < 6; ++i)
        specs.push_back(i % 2 ? blade : server);
    Coordinator c(core::coordinatedConfig(), smallTopo(), specs,
                  nps_test::flatTraces(6, 0.3, 32));
    c.run(200);
    EXPECT_EQ(c.summary().ticks, 200u);
    // Per-machine budgets differ across the heterogeneous fleet.
    EXPECT_GT(c.sms()[0]->staticCap(), c.sms()[1]->staticCap());
}

TEST(Coordinator, SeriesRetainedWhenRequested)
{
    Coordinator c(core::coordinatedConfig(), smallTopo(),
                  model::bladeA(), nps_test::flatTraces(6, 0.3, 32),
                  /*keep_series=*/true);
    c.run(25);
    EXPECT_EQ(c.metrics().powerSeries().size(), 25u);
}

} // namespace
