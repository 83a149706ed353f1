/**
 * @file
 * Tests for the VM Controller: consolidation, power-off, budget
 * constraints, violation-feedback buffers, and the real-vs-apparent
 * utilization inputs.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/fixtures.h"
#include "controllers/vm_controller.h"

namespace {

using namespace nps;
using controllers::VmController;

class VmcTest : public ::testing::Test
{
  protected:
    VmcTest() : cluster_(nps_test::smallCluster(0.15, {})) {}

    VmController::Params
    fastParams()
    {
        VmController::Params p;
        p.period = 20;
        // Keep the per-epoch feedback gain at its nominal value so the
        // buffer arithmetic in these unit tests stays exact; the
        // per-unit-time scaling has its own test below.
        p.gain_ref_period = 20;
        p.migration_ticks = 5;
        return p;
    }

    /** Run cluster + VMC for n ticks (no other controllers). */
    void
    run(VmController &vmc, size_t n, size_t start = 0)
    {
        for (size_t t = start; t < start + n; ++t) {
            vmc.observe(t);
            if (t > 0 && t % vmc.period() == 0)
                vmc.step(t);
            cluster_.evaluateTick(t);
        }
    }

    sim::Cluster cluster_;
};

TEST_F(VmcTest, ConsolidatesAndPowersOff)
{
    VmController vmc(cluster_, {}, fastParams());
    run(vmc, 100);
    EXPECT_GT(vmc.stats().migrations, 0u);
    EXPECT_GT(vmc.stats().adoptions, 0u);
    size_t off = 0;
    for (const auto &srv : cluster_.servers())
        off += srv.platformPower(99) == sim::PlatformPower::Off ? 1 : 0;
    EXPECT_GT(off, 0u);
    // 6 VMs of ~0.17 load fit comfortably on one server at 0.9 capacity.
    EXPECT_GE(off, 4u);
}

TEST_F(VmcTest, PowerOffDisabledKeepsMachinesOn)
{
    auto p = fastParams();
    p.allow_power_off = false;
    VmController vmc(cluster_, {}, p);
    run(vmc, 100);
    for (const auto &srv : cluster_.servers())
        EXPECT_TRUE(srv.isOn(99));
}

TEST_F(VmcTest, ConsolidationReducesPower)
{
    double before = cluster_.evaluateTick(0).total_power;
    VmController vmc(cluster_, {}, fastParams());
    run(vmc, 100);
    double after = cluster_.evaluateTick(100).total_power;
    EXPECT_LT(after, before * 0.6);
}

TEST_F(VmcTest, BudgetConstraintsLimitPacking)
{
    // Six VMs at 0.4: without budgets three fit per server (1.2+ load >
    // capacity, so two per server at 0.88); with a tight local cap only
    // lighter packing is feasible.
    for (sim::VmId j = 0; j < cluster_.numVms(); ++j)
        cluster_.replaceVm(j, nps_test::flatTrace("m", 0.4, 8));
    auto p = fastParams();
    p.use_budget_constraints = true;
    VmController vmc(cluster_, {}, p);
    run(vmc, 100);
    // Local cap 76.5 W at P0 allows util (76.5-42)/43 = 0.80: a pair of
    // 0.44 loads (0.88) estimated at P0 exceeds it, so servers host at
    // most one VM each... unless estimated at a deeper state. Verify no
    // server's estimated packed load breaks the cap instead:
    for (const auto &srv : cluster_.servers()) {
        if (!srv.isOn(99))
            continue;
        double load = 0.44 * static_cast<double>(srv.vms().size());
        double est = srv.model().powerForDemand(
            srv.model().bestStateForDemand(load, 0.75), load);
        EXPECT_LE(est, cluster_.capLoc(srv.id()) + 1e-6);
    }
}

TEST_F(VmcTest, NoBudgetConstraintsPacksTighter)
{
    for (sim::VmId j = 0; j < cluster_.numVms(); ++j)
        cluster_.replaceVm(j, nps_test::flatTrace("m", 0.4, 8));
    auto constrained = fastParams();
    auto unconstrained = fastParams();
    unconstrained.use_budget_constraints = false;

    auto cluster2 = nps_test::smallCluster(0.4, {});
    VmController vmc1(cluster_, {}, constrained);
    VmController vmc2(cluster2, {}, unconstrained);
    run(vmc1, 100);
    for (size_t t = 0; t < 100; ++t) {
        vmc2.observe(t);
        if (t > 0 && t % vmc2.period() == 0)
            vmc2.step(t);
        cluster2.evaluateTick(t);
    }
    size_t on1 = 0, on2 = 0;
    for (const auto &s : cluster_.servers())
        on1 += s.isOn(99) ? 1 : 0;
    for (const auto &s : cluster2.servers())
        on2 += s.isOn(99) ? 1 : 0;
    EXPECT_LE(on2, on1);
}

TEST_F(VmcTest, FeedbackBuffersRespondToViolations)
{
    /** A synthetic violation feed. */
    class FakeSource : public controllers::ViolationSource
    {
      public:
        double rate = 0.0;
        double epochViolationRate() const override { return rate; }
        void drainEpoch() override { drained = true; }
        double lifetimeViolationRate() const override { return rate; }
        bool drained = false;
    };

    FakeSource local;
    local.rate = 0.4;
    VmController::Feedback feedback;
    feedback.local = {&local};
    auto p = fastParams();
    VmController vmc(cluster_, feedback, p);
    EXPECT_DOUBLE_EQ(vmc.bufferLoc(), p.buffer_init);
    run(vmc, 21);
    // b = decay*init + gain*rate = 0.5*0.02 + 0.5*0.4 = 0.21.
    EXPECT_NEAR(vmc.bufferLoc(), 0.21, 1e-9);
    EXPECT_TRUE(local.drained);
    // Quiet epochs decay the buffer back towards the floor.
    local.rate = 0.0;
    run(vmc, 40, 21);
    EXPECT_LT(vmc.bufferLoc(), 0.12);
    EXPECT_GE(vmc.bufferLoc(), p.buffer_init);
}

TEST_F(VmcTest, FeedbackGainScalesWithEpochRate)
{
    // Per-unit-time feedback (Section 5.4): halving the epoch doubles
    // the per-epoch gain, so the same violation rate drives a larger
    // buffer.
    class FixedSource : public controllers::ViolationSource
    {
      public:
        double epochViolationRate() const override { return 0.2; }
        void drainEpoch() override {}
        double lifetimeViolationRate() const override { return 0.2; }
    };
    FixedSource src;
    VmController::Feedback feedback;
    feedback.local = {&src};

    auto slow_p = fastParams();
    slow_p.gain_ref_period = 40;  // epoch is half the reference
    VmController fast_vmc(cluster_, feedback, slow_p);
    auto base_p = fastParams();   // epoch equals the reference
    auto cluster2 = nps_test::smallCluster(0.15, {});
    VmController base_vmc(cluster2, feedback, base_p);

    run(fast_vmc, 21);
    for (size_t t = 0; t < 21; ++t) {
        base_vmc.observe(t);
        if (t > 0 && t % base_vmc.period() == 0)
            base_vmc.step(t);
        cluster2.evaluateTick(t);
    }
    EXPECT_GT(fast_vmc.bufferLoc(), base_vmc.bufferLoc());
}

TEST_F(VmcTest, FeedbackDisabledKeepsBuffersAtZero)
{
    auto p = fastParams();
    p.use_violation_feedback = false;
    VmController vmc(cluster_, {}, p);
    run(vmc, 50);
    EXPECT_DOUBLE_EQ(vmc.bufferLoc(), 0.0);
    EXPECT_DOUBLE_EQ(vmc.bufferEnc(), 0.0);
    EXPECT_DOUBLE_EQ(vmc.bufferGrp(), 0.0);
}

TEST_F(VmcTest, MigrationsTaxTheMovedVms)
{
    VmController vmc(cluster_, {}, fastParams());
    run(vmc, 21);
    ASSERT_GT(vmc.stats().migrations, 0u);
    bool someone_migrating = false;
    for (const auto &vm : cluster_.vms())
        someone_migrating |= vm.migrating(21);
    EXPECT_TRUE(someone_migrating);
}

TEST_F(VmcTest, ApparentUtilPacksDifferently)
{
    // Throttle every server to the deepest state: apparent shares are
    // inflated ~1.9x, so the apparent-mode VMC sees much bigger VMs and
    // consolidates less.
    for (auto &srv : cluster_.servers())
        srv.setPState(4);
    auto real_p = fastParams();
    auto appr_p = fastParams();
    appr_p.use_real_util = false;

    auto cluster2 = nps_test::smallCluster(0.15, {});
    for (auto &srv : cluster2.servers())
        srv.setPState(4);

    VmController real_vmc(cluster_, {}, real_p);
    VmController appr_vmc(cluster2, {}, appr_p);
    run(real_vmc, 100);
    for (size_t t = 0; t < 100; ++t) {
        appr_vmc.observe(t);
        if (t > 0 && t % appr_vmc.period() == 0)
            appr_vmc.step(t);
        cluster2.evaluateTick(t);
    }
    size_t on_real = 0, on_appr = 0;
    for (const auto &s : cluster_.servers())
        on_real += s.isOn(99) ? 1 : 0;
    for (const auto &s : cluster2.servers())
        on_appr += s.isOn(99) ? 1 : 0;
    EXPECT_LE(on_real, on_appr);
}

TEST_F(VmcTest, BootsTargetsBeforeMigration)
{
    // Force everything off except server 0, then raise demand so the
    // VMC must re-open machines.
    VmController vmc(cluster_, {}, fastParams());
    run(vmc, 100);
    size_t off_before = 0;
    for (const auto &s : cluster_.servers())
        off_before += s.isOn(99) ? 0 : 1;
    ASSERT_GT(off_before, 0u);
    for (sim::VmId j = 0; j < cluster_.numVms(); ++j)
        cluster_.replaceVm(j, nps_test::flatTrace("hot", 0.6, 8));
    run(vmc, 100, 100);
    size_t on_after = 0;
    for (const auto &s : cluster_.servers())
        on_after += s.isOn(199) ? 1 : 0;
    EXPECT_GT(on_after, 1u);
}

TEST_F(VmcTest, ForecastAnticipatesRamps)
{
    // Demand steps up each epoch; the Holt-forecasting VMC must end up
    // with more servers on (it packs for where demand is going) than
    // the reactive one at the same instant.
    auto make_ramp = [](sim::Cluster &cl) {
        for (sim::VmId j = 0; j < cl.numVms(); ++j) {
            std::vector<double> v(120);
            for (size_t t = 0; t < v.size(); ++t)
                v[t] = 0.10 + 0.15 * static_cast<double>(t / 20);
            cl.replaceVm(j, trace::UtilizationTrace(
                                "ramp", trace::WorkloadClass::Batch,
                                std::move(v)));
        }
    };
    auto reactive_p = fastParams();
    auto forecast_p = fastParams();
    forecast_p.use_forecast = true;
    forecast_p.forecast.method = controllers::ForecastMethod::HoltLinear;
    forecast_p.forecast.alpha = 0.8;
    forecast_p.forecast.beta = 0.8;

    auto cluster2 = nps_test::smallCluster(0.1, {});
    make_ramp(cluster_);
    make_ramp(cluster2);
    VmController reactive(cluster_, {}, reactive_p);
    VmController forecast(cluster2, {}, forecast_p);
    run(reactive, 101);
    for (size_t t = 0; t < 101; ++t) {
        forecast.observe(t);
        if (t > 0 && t % forecast.period() == 0)
            forecast.step(t);
        cluster2.evaluateTick(t);
    }
    // Compare the total packed headroom: the forecasting plan reserves
    // at least as much capacity (>= because quantization may tie).
    size_t on_reactive = 0, on_forecast = 0;
    for (const auto &s : cluster_.servers())
        on_reactive += s.isOn(100) ? 1 : 0;
    for (const auto &s : cluster2.servers())
        on_forecast += s.isOn(100) ? 1 : 0;
    EXPECT_GE(on_forecast, on_reactive);
}

TEST_F(VmcTest, StatsAccumulate)
{
    VmController vmc(cluster_, {}, fastParams());
    run(vmc, 100);
    EXPECT_EQ(vmc.stats().epochs, 4u);  // steps at 20, 40, 60, 80
    EXPECT_GT(vmc.stats().last_est_power, 0.0);
}

TEST_F(VmcTest, BadParamsDie)
{
    auto p = fastParams();
    p.capacity_target = 0.0;
    EXPECT_DEATH(VmController(cluster_, {}, p), "capacity target");
    auto q = fastParams();
    q.buffer_max = 1.0;
    EXPECT_DEATH(VmController(cluster_, {}, q), "buffer max");
    // Either would hand the packer a negative load.
    auto r = fastParams();
    r.spread_sigma = -0.5;
    EXPECT_DEATH(VmController(cluster_, {}, r), "spread sigma");
    auto s = fastParams();
    s.alpha_v = -2.0;
    EXPECT_DEATH(VmController(cluster_, {}, s), "alpha_v");
}

} // namespace
