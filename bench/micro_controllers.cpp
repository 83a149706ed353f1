/**
 * @file
 * google-benchmark micro suite for the controller hot paths: the EC and
 * SM step laws, budget division across an enclosure and a group, the
 * bin-packing optimizer at realistic sizes, and the Appendix A linear
 * analysis helpers.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "control/linear_system.h"
#include "controllers/binpack.h"
#include "controllers/efficiency.h"
#include "controllers/policies.h"
#include "controllers/server_manager.h"
#include "model/machine.h"
#include "sim/server.h"
#include "trace/trace.h"

namespace {

using namespace nps;

std::shared_ptr<const model::MachineSpec>
bladeSpec()
{
    static auto spec = std::make_shared<const model::MachineSpec>(
        model::bladeA());
    return spec;
}

void
BM_EcStep(benchmark::State &state)
{
    sim::Server server(0, bladeSpec(), 0.1, 0.1);
    std::vector<sim::VirtualMachine> vms;
    vms.emplace_back(0, trace::UtilizationTrace(
                            "t", trace::WorkloadClass::WebServer,
                            std::vector<double>(64, 0.4)));
    server.addVm(0);
    controllers::EfficiencyController ec(server, {});
    size_t tick = 0;
    for (auto _ : state) {
        server.evaluate(tick, vms);
        ec.step(tick + 1);
        ++tick;
    }
}
BENCHMARK(BM_EcStep);

void
BM_SmStep(benchmark::State &state)
{
    sim::Server server(0, bladeSpec(), 0.1, 0.1);
    std::vector<sim::VirtualMachine> vms;
    vms.emplace_back(0, trace::UtilizationTrace(
                            "t", trace::WorkloadClass::WebServer,
                            std::vector<double>(64, 0.8)));
    server.addVm(0);
    controllers::EfficiencyController ec(server, {});
    controllers::ServerManager sm(server, &ec, 70.0, {});
    size_t tick = 0;
    for (auto _ : state) {
        server.evaluate(tick, vms);
        sm.observe(tick + 1);
        sm.step(tick + 1);
        ec.step(tick + 1);
        ++tick;
    }
}
BENCHMARK(BM_SmStep);

void
BM_DivideBudget(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    controllers::DivisionInput in;
    in.budget = 100.0 * static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
        in.demands.push_back(40.0 + static_cast<double>(i % 17));
        in.maxima.push_back(120.0);
        in.floors.push_back(20.0);
    }
    for (auto _ : state) {
        auto grants = controllers::divideBudget(
            controllers::DivisionPolicy::Proportional, in);
        benchmark::DoNotOptimize(grants);
    }
}
BENCHMARK(BM_DivideBudget)->Arg(20)->Arg(66)->Arg(180);

/**
 * One VMC epoch's packing over n bins and n items. The 76.5 W local cap
 * binds at a packed load of about 0.80, before the 0.9 capacity, which
 * is the regime the consolidate-10k fleet packs in; the 10000-bin case
 * shows how the packer scales there.
 */
void
BM_PackGreedy(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    model::PowerModel model(model::bladeA().pstates());
    std::vector<controllers::PackBin> bins;
    std::vector<controllers::PackItem> items;
    for (unsigned i = 0; i < n; ++i) {
        controllers::PackBin b;
        b.id = i;
        b.power = &model;
        b.enclosure = i / 20;
        b.capacity = 0.9;
        b.power_cap = 76.5;
        b.unused_watts = 2.0;
        bins.push_back(b);
        items.push_back({i, 0.15 + 0.002 * (i % 50), i});
    }
    controllers::PackConstraints c;
    c.enclosure_caps.assign((n + 19) / 20, 20.0 * 85.0 * 0.85);
    c.group_cap = n * 85.0 * 0.8;
    for (auto _ : state) {
        auto r = controllers::packGreedy(items, bins, c);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_PackGreedy)->Arg(60)->Arg(180)->Arg(500)->Arg(10000);

void
BM_SmClosedLoopSettling(benchmark::State &state)
{
    for (auto _ : state) {
        ctl::FirstOrderSystem loop = ctl::smClosedLoop(1.0, 0.6, 70.0,
                                                       90.0);
        benchmark::DoNotOptimize(loop.settlingTime(0.01, 10000));
    }
}
BENCHMARK(BM_SmClosedLoopSettling);

} // namespace
