/**
 * @file
 * Reproducibility guarantees: the entire pipeline — trace generation,
 * controllers (including the randomized policy), the VMC — must be a
 * pure function of the configuration and the seed. Two runs with the
 * same inputs produce bit-identical metrics; changing the seed changes
 * the traces but not the qualitative outcome.
 *
 * The parallel tick engine extends the contract across thread counts:
 * a run at threads = N must reproduce the serial (threads = 1) per-tick
 * metric series bit-for-bit, for coordinated and uncoordinated stacks,
 * homogeneous and heterogeneous fleets alike.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "model/machine.h"
#include "trace/generator.h"
#include "trace/workload.h"
#include "util/thread_pool.h"

namespace {

using namespace nps;

core::ExperimentResult
runOnce(uint64_t seed, core::Scenario scenario)
{
    trace::GeneratorConfig gen;
    gen.seed = seed;
    gen.trace_length = 800;
    core::ExperimentRunner runner(gen);
    core::ExperimentSpec spec;
    spec.config = core::scenarioConfig(scenario);
    spec.mix = trace::Mix::Mid60;
    spec.ticks = 800;
    return runner.run(spec);
}

TEST(Determinism, CoordinatedRunsAreBitIdentical)
{
    auto a = runOnce(42, core::Scenario::Coordinated);
    auto b = runOnce(42, core::Scenario::Coordinated);
    EXPECT_EQ(a.scenario.energy, b.scenario.energy);
    EXPECT_EQ(a.scenario.perf_loss, b.scenario.perf_loss);
    EXPECT_EQ(a.scenario.sm_violation, b.scenario.sm_violation);
    EXPECT_EQ(a.scenario.peak_power, b.scenario.peak_power);
    EXPECT_EQ(a.vmc.migrations, b.vmc.migrations);
    EXPECT_EQ(a.vmc.adoptions, b.vmc.adoptions);
}

TEST(Determinism, UncoordinatedRunsAreBitIdentical)
{
    auto a = runOnce(42, core::Scenario::Uncoordinated);
    auto b = runOnce(42, core::Scenario::Uncoordinated);
    EXPECT_EQ(a.scenario.energy, b.scenario.energy);
    EXPECT_EQ(a.vmc.migrations, b.vmc.migrations);
}

TEST(Determinism, RandomPolicyIsSeededNotWallClock)
{
    auto make = [](uint64_t seed) {
        trace::GeneratorConfig gen;
        gen.seed = 5;
        gen.trace_length = 600;
        core::ExperimentRunner runner(gen);
        core::ExperimentSpec spec;
        spec.config = core::withPolicy(
            core::coordinatedConfig(),
            controllers::DivisionPolicy::Random);
        spec.config.em.seed = seed;
        spec.config.gm.seed = seed;
        spec.mix = trace::Mix::Mid60;
        spec.ticks = 600;
        return runner.run(spec);
    };
    auto a = make(1);
    auto b = make(1);
    EXPECT_EQ(a.scenario.energy, b.scenario.energy);
}

TEST(Determinism, SeedChangesTracesNotConclusions)
{
    for (uint64_t seed : {7ull, 99ull, 12345ull}) {
        auto coord = runOnce(seed, core::Scenario::Coordinated);
        auto uncoord = runOnce(seed, core::Scenario::Uncoordinated);
        // Different seeds give different numbers...
        // ...but the paper's qualitative claim holds for each of them.
        EXPECT_LT(coord.scenario.sm_violation,
                  uncoord.scenario.sm_violation + 1e-9)
            << "seed " << seed;
        EXPECT_GT(coord.power_savings, 0.10) << "seed " << seed;
    }
}

TEST(Determinism, DistinctSeedsProduceDistinctRuns)
{
    auto a = runOnce(1, core::Scenario::Coordinated);
    auto b = runOnce(2, core::Scenario::Coordinated);
    EXPECT_NE(a.scenario.energy, b.scenario.energy);
}

// ---------------------------------------------------------------------
// Serial vs parallel engine equivalence.

constexpr size_t kParTicks = 400;

const std::vector<trace::UtilizationTrace> &
parTraces()
{
    static const std::vector<trace::UtilizationTrace> traces = [] {
        trace::GeneratorConfig gen;
        gen.seed = 42;
        gen.trace_length = kParTicks;
        trace::WorkloadLibrary library(gen);
        return library.mix(trace::Mix::Mid60);
    }();
    return traces;
}

std::vector<std::shared_ptr<const model::MachineSpec>>
mixedSpecs(size_t n)
{
    auto blade = std::make_shared<const model::MachineSpec>(
        model::bladeA());
    auto server = std::make_shared<const model::MachineSpec>(
        model::serverB());
    std::vector<std::shared_ptr<const model::MachineSpec>> specs;
    for (size_t i = 0; i < n; ++i)
        specs.push_back(i % 2 == 0 ? blade : server);
    return specs;
}

/** Per-tick power and performance series of one run. */
struct Series
{
    std::vector<double> power;
    std::vector<double> perf;
    sim::MetricsSummary summary;
};

Series
runSeries(core::Scenario scenario, unsigned threads, bool heterogeneous)
{
    core::CoordinationConfig cfg = core::scenarioConfig(scenario);
    cfg.threads = threads;
    sim::Topology topo = core::ExperimentRunner::topologyFor(
        trace::Mix::Mid60);
    std::unique_ptr<core::Coordinator> coord;
    if (heterogeneous) {
        coord = std::make_unique<core::Coordinator>(
            cfg, topo, mixedSpecs(topo.num_servers), parTraces(),
            /*keep_series=*/true);
    } else {
        coord = std::make_unique<core::Coordinator>(
            cfg, topo, model::bladeA(), parTraces(),
            /*keep_series=*/true);
    }
    coord->run(kParTicks);
    return {coord->metrics().powerSeries(), coord->metrics().perfSeries(),
            coord->summary()};
}

void
expectSeriesIdentical(const Series &serial, const Series &parallel,
                      unsigned threads)
{
    ASSERT_EQ(serial.power.size(), parallel.power.size());
    ASSERT_EQ(serial.perf.size(), parallel.perf.size());
    for (size_t t = 0; t < serial.power.size(); ++t) {
        // Exact comparison: the sharded engine must be arithmetically
        // indistinguishable from the serial one, tick by tick.
        ASSERT_EQ(serial.power[t], parallel.power[t])
            << "group power diverged at tick " << t << " with threads="
            << threads;
        ASSERT_EQ(serial.perf[t], parallel.perf[t])
            << "perf diverged at tick " << t << " with threads="
            << threads;
    }
    EXPECT_EQ(serial.summary.energy, parallel.summary.energy);
    EXPECT_EQ(serial.summary.peak_power, parallel.summary.peak_power);
    EXPECT_EQ(serial.summary.sm_violation, parallel.summary.sm_violation);
    EXPECT_EQ(serial.summary.em_violation, parallel.summary.em_violation);
    EXPECT_EQ(serial.summary.gm_violation, parallel.summary.gm_violation);
    EXPECT_EQ(serial.summary.perf_loss, parallel.summary.perf_loss);
}

TEST(Determinism, ParallelCoordinatedMatchesSerialPerTick)
{
    Series serial = runSeries(core::Scenario::Coordinated, 1, false);
    for (unsigned threads : {2u, 4u, 8u}) {
        Series parallel =
            runSeries(core::Scenario::Coordinated, threads, false);
        expectSeriesIdentical(serial, parallel, threads);
    }
}

TEST(Determinism, ParallelUncoordinatedMatchesSerialPerTick)
{
    Series serial = runSeries(core::Scenario::Uncoordinated, 1, false);
    for (unsigned threads : {2u, 4u, 8u}) {
        Series parallel =
            runSeries(core::Scenario::Uncoordinated, threads, false);
        expectSeriesIdentical(serial, parallel, threads);
    }
}

TEST(Determinism, ParallelHeterogeneousMatchesSerialPerTick)
{
    for (core::Scenario scenario : {core::Scenario::Coordinated,
                                    core::Scenario::Uncoordinated}) {
        Series serial = runSeries(scenario, 1, true);
        for (unsigned threads : {2u, 4u, 8u}) {
            Series parallel = runSeries(scenario, threads, true);
            expectSeriesIdentical(serial, parallel, threads);
        }
    }
}

TEST(Determinism, ParallelWithCapAndMemMatchesSerialPerTick)
{
    // The optional per-server controllers (electrical capper, memory
    // manager) run as kernels too; include them so every kernel crosses
    // the parallel path.
    core::CoordinationConfig cfg = core::coordinatedConfig();
    cfg.enable_cap = true;
    cfg.enable_mem = true;
    sim::Topology topo = core::ExperimentRunner::topologyFor(
        trace::Mix::Mid60);
    auto run = [&](unsigned threads) {
        core::CoordinationConfig c = cfg;
        c.threads = threads;
        core::Coordinator coord(c, topo, model::bladeA(), parTraces(),
                                /*keep_series=*/true);
        coord.run(kParTicks);
        return Series{coord.metrics().powerSeries(),
                      coord.metrics().perfSeries(), coord.summary()};
    };
    Series serial = run(1);
    for (unsigned threads : {2u, 4u, 8u})
        expectSeriesIdentical(serial, run(threads), threads);
}

TEST(Determinism, ParallelFaultInjectedMatchesSerialPerTick)
{
    // The fault layer must preserve the thread-count contract: fault
    // randomness is keyed by (seed, target, tick), so a chaotic run is
    // as reproducible as a clean one.
    auto run = [&](unsigned threads) {
        core::CoordinationConfig cfg =
            core::scenarioConfig(core::Scenario::Coordinated);
        cfg.threads = threads;
        cfg.faults.enabled = true;
        cfg.faults.seed = 3;
        cfg.faults.script =
            "outage em 0 60 160\n"
            "outage ec 3 80 200\n"
            "drop em-sm * 50 250 0.5\n"
            "stuck 1 40 120\n"
            "noise 2 30 300 0.2\n";
        sim::Topology topo = core::ExperimentRunner::topologyFor(
            trace::Mix::Mid60);
        core::Coordinator coord(cfg, topo, model::bladeA(), parTraces(),
                                /*keep_series=*/true);
        coord.run(kParTicks);
        Series s{coord.metrics().powerSeries(),
                 coord.metrics().perfSeries(), coord.summary()};
        return std::make_pair(s, coord.degradeStats());
    };
    auto serial = run(1);
    ASSERT_FALSE(serial.second.none());
    for (unsigned threads : {2u, 4u, 8u}) {
        auto parallel = run(threads);
        expectSeriesIdentical(serial.first, parallel.first, threads);
        EXPECT_EQ(serial.second.outage_ticks,
                  parallel.second.outage_ticks);
        EXPECT_EQ(serial.second.dropped_budgets,
                  parallel.second.dropped_budgets);
        EXPECT_EQ(serial.second.noisy_reads, parallel.second.noisy_reads);
    }
}

TEST(Determinism, ParallelTraceGenerationMatchesSerial)
{
    trace::GeneratorConfig gen;
    gen.seed = 7;
    gen.trace_length = 256;
    trace::TraceGenerator generator(gen);
    auto serial = generator.generateAll();
    util::ThreadPool pool(4);
    auto parallel = generator.generateAll(&pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].name(), parallel[i].name());
        ASSERT_EQ(serial[i].length(), parallel[i].length());
        for (size_t t = 0; t < serial[i].length(); ++t)
            ASSERT_EQ(serial[i].at(t), parallel[i].at(t))
                << "trace " << serial[i].name() << " tick " << t;
    }
}

} // namespace
