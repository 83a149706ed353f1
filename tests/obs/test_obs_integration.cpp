/**
 * @file
 * End-to-end observability contracts on a real coordinated run:
 *
 *  - thread invariance: metrics exposition and merged trace CSV are
 *    byte-identical at threads = 1, 4, and 8;
 *  - transparency: enabling observability does not change any
 *    MetricsSummary field (observation only, bit-for-bit);
 *  - wiring: run-summary gauges mirror the summary, the profiler saw
 *    every tick, and disabled instruments stay null;
 *  - config: the [obs] INI section round-trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/config_io.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "obs/observability.h"
#include "trace/workload.h"

namespace {

using namespace nps;

/** Short horizon: long enough for VMC epochs and budget redistribution,
 * short enough to run three thread counts plus an obs-off control. */
constexpr size_t kTicks = 240;

struct RunOutputs
{
    sim::MetricsSummary summary;
    std::string prom;
    std::string csv;
    size_t profiled_ticks = 0;
    size_t profiled_actors = 0;
};

RunOutputs
runCoordinated(unsigned threads, bool obs_on,
               const std::string &trace_filter = std::string())
{
    trace::GeneratorConfig gen;
    gen.seed = 20080301;
    gen.trace_length = kTicks;
    trace::WorkloadLibrary library(gen);

    core::CoordinationConfig cfg =
        core::scenarioConfig(core::Scenario::Coordinated);
    cfg.threads = threads;
    if (obs_on) {
        cfg.observability.metrics = true;
        cfg.observability.trace = true;
        cfg.observability.profile = true;
        cfg.observability.trace_filter = trace_filter;
    }

    core::Coordinator coord(
        cfg, core::ExperimentRunner::topologyFor(trace::Mix::Mid60),
        model::machineByName("BladeA"), library.mix(trace::Mix::Mid60));
    coord.run(kTicks);

    RunOutputs out;
    out.summary = coord.summary();
    if (obs_on) {
        std::ostringstream prom;
        coord.metricsRegistry()->writeProm(prom);
        out.prom = prom.str();
        std::ostringstream csv;
        coord.traceSink()->writeCsv(csv);
        out.csv = csv.str();
        out.profiled_ticks = coord.profiler()->ticks();
        out.profiled_actors = coord.profiler()->actorStats().size();
    } else {
        EXPECT_EQ(coord.metricsRegistry(), nullptr);
        EXPECT_EQ(coord.traceSink(), nullptr);
        EXPECT_EQ(coord.profiler(), nullptr);
    }
    return out;
}

void
expectSummariesEqual(const sim::MetricsSummary &a,
                     const sim::MetricsSummary &b)
{
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.mean_power, b.mean_power);
    EXPECT_EQ(a.peak_power, b.peak_power);
    EXPECT_EQ(a.sm_violation, b.sm_violation);
    EXPECT_EQ(a.em_violation, b.em_violation);
    EXPECT_EQ(a.gm_violation, b.gm_violation);
    EXPECT_EQ(a.perf_loss, b.perf_loss);
}

TEST(ObsIntegration, ExportsAreThreadInvariant)
{
    RunOutputs t1 = runCoordinated(1, true);
    RunOutputs t4 = runCoordinated(4, true);
    RunOutputs t8 = runCoordinated(8, true);

    ASSERT_FALSE(t1.prom.empty());
    ASSERT_FALSE(t1.csv.empty());
    EXPECT_EQ(t1.csv.compare(0, 23, "tick,channel,seq,event\n"), 0);

    // The determinism contract (docs/OBSERVABILITY.md): byte-identical
    // exports at any worker count.
    EXPECT_EQ(t1.prom, t4.prom);
    EXPECT_EQ(t1.prom, t8.prom);
    EXPECT_EQ(t1.csv, t4.csv);
    EXPECT_EQ(t1.csv, t8.csv);

    // And the simulation itself agrees across thread counts.
    expectSummariesEqual(t1.summary, t4.summary);
    expectSummariesEqual(t1.summary, t8.summary);
}

TEST(ObsIntegration, EnablingObservabilityIsTransparent)
{
    RunOutputs off = runCoordinated(4, false);
    RunOutputs on = runCoordinated(4, true);
    expectSummariesEqual(off.summary, on.summary);
}

TEST(ObsIntegration, RunGaugesMirrorSummary)
{
    trace::GeneratorConfig gen;
    gen.seed = 20080301;
    gen.trace_length = kTicks;
    trace::WorkloadLibrary library(gen);

    core::CoordinationConfig cfg =
        core::scenarioConfig(core::Scenario::Coordinated);
    cfg.observability.metrics = true;
    core::Coordinator coord(
        cfg, core::ExperimentRunner::topologyFor(trace::Mix::Mid60),
        model::machineByName("BladeA"), library.mix(trace::Mix::Mid60));
    coord.run(kTicks);

    const sim::MetricsSummary s = coord.summary();
    const obs::MetricsRegistry *reg = coord.metricsRegistry();
    ASSERT_NE(reg, nullptr);
    EXPECT_EQ(reg->value("nps_run_ticks", ""),
              static_cast<double>(s.ticks));
    EXPECT_EQ(reg->value("nps_run_energy_watt_ticks", ""), s.energy);
    EXPECT_EQ(reg->value("nps_run_mean_power_watts", ""), s.mean_power);
    EXPECT_EQ(reg->value("nps_run_peak_power_watts", ""), s.peak_power);
    EXPECT_EQ(reg->value("nps_run_violation_frac", "gm"), s.gm_violation);
    EXPECT_EQ(reg->value("nps_run_perf_loss_frac", ""), s.perf_loss);
    // Fault-free run: every degradation counter is zero.
    EXPECT_EQ(reg->total("nps_degrade_total"), 0.0);
}

TEST(ObsIntegration, ProfilerCoversTheRun)
{
    RunOutputs on = runCoordinated(4, true);
    EXPECT_EQ(on.profiled_ticks, kTicks);
    // Mid60: the EC and SM kernels (one actor each for all 60
    // servers), two EMs, the GM and the VMC.
    EXPECT_EQ(on.profiled_actors, 6u);
}

TEST(ObsIntegration, TraceFilterRestrictsChannels)
{
    RunOutputs all = runCoordinated(1, true);
    RunOutputs sm = runCoordinated(1, true, "SM/");
    ASSERT_FALSE(sm.csv.empty());
    EXPECT_LT(sm.csv.size(), all.csv.size());
    // Every data row of the filtered trace names an SM channel.
    std::istringstream lines(sm.csv);
    std::string line;
    std::getline(lines, line); // header
    size_t rows = 0;
    while (std::getline(lines, line)) {
        ++rows;
        EXPECT_NE(line.find(",SM/"), std::string::npos) << line;
    }
    EXPECT_GT(rows, 0u);
}

TEST(ObsIntegration, ObsConfigRoundTripsThroughIni)
{
    core::CoordinationConfig cfg;
    cfg.observability.metrics = true;
    cfg.observability.trace = true;
    cfg.observability.profile = true;
    cfg.observability.trace_filter = "GM/";
    cfg.observability.trace_capacity = 1024;

    core::CoordinationConfig back =
        core::configFromIni(core::configToIni(cfg));
    EXPECT_TRUE(back.observability.metrics);
    EXPECT_TRUE(back.observability.trace);
    EXPECT_TRUE(back.observability.profile);
    EXPECT_EQ(back.observability.trace_filter, "GM/");
    EXPECT_EQ(back.observability.trace_capacity, 1024u);

    core::CoordinationConfig off =
        core::configFromIni(core::configToIni(core::CoordinationConfig()));
    EXPECT_FALSE(off.observability.any());
}

} // namespace
