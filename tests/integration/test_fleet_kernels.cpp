/**
 * @file
 * Fleet-kernel suite: the per-server EC and SM loops run as two
 * struct-of-arrays kernel actors (controllers/efficiency.h,
 * controllers/server_manager.h), and every degradation path those loops
 * own keeps its pinned, thread-count-invariant behaviour.
 *
 *  - a 5000-server tiered fleet under a fault campaign that reaches
 *    every EC/SM degradation path (EC down -> SM direct fallback, SM
 *    down and cold restart, stuck P-state in both the EC and the SM
 *    fallback, noisy and frozen utilization, budget-lease expiry on
 *    the EM->SM and GM->SM links) finishes with a pinned outcome,
 *    DegradeStats and per-server controller state;
 *  - the same fleet with the control-plane log and the cascade trace
 *    on yields byte-identical CSVs at threads 1/4/8 and across a
 *    checkpoint/resume, pinned by digest;
 *  - the per-slot observability hooks (metrics and decision traces)
 *    export the same pinned text at every thread count;
 *  - the Coordinator registers one kernel actor per kind, not one
 *    actor per server;
 *  - the electrical cappers and memory managers (CAP/fleet, MM/fleet)
 *    under a campaign of CAP outages and restarts and stuck P-states
 *    while clamps are on keep a pinned outcome, control-log CSV and
 *    metrics/trace export at threads 1/4/8 and across a checkpoint.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "ckpt/snapshot.h"
#include "core/coordinator.h"
#include "core/scenarios.h"
#include "model/machine.h"
#include "sim/fleetgen.h"

namespace {

using namespace nps;

constexpr unsigned kServers = 5000; // 10 zones of 500
constexpr size_t kTicks = 240;      // past the 150-tick SM lease
constexpr size_t kSplit = 120;      // checkpoint taken here

/**
 * Server ids below follow FleetGen's layout: the enclosed blades come
 * first (20 per enclosure, 4000 of them in a 5000-server fleet), the
 * standalone servers after them. Every EC/SM degradation path is hit:
 *  - server 10: EC down -> SM direct fallback;
 *  - every server, ticks 150-160: EC down with a stuck actuator inside
 *    the window, so the SM-direct fallback hits the stuck path, and
 *    every EC then restarts cold;
 *  - server 20: SM down, then a cold restart;
 *  - server 30: stuck P-state under the EC;
 *  - servers 40/41: noisy and frozen utilization;
 *  - servers 4500 and 60: every budget grant dropped (GM->SM and
 *    EM->SM), so both leases lapse into the local fallback cap;
 *  - an EM and an inner GM outage, and a seeded random campaign of
 *    drops, stale grants, stuck, noisy and frozen windows on top.
 */
const char *const kScript =
    "outage ec 10 30 90; outage ec * 150 160; stuck * 152 158; "
    "outage sm 20 40 100; stuck 30 20 150; noise 40 10 150 0.2; "
    "freeze 41 10 150; drop gm-sm 4500 1 240; drop em-sm 60 1 240; "
    "outage ec 3000 5 235; outage em 7 60 120; outage gm 3 100 140";

core::CoordinationConfig
kernelConfig(unsigned threads)
{
    core::CoordinationConfig cfg = core::fleetConfig();
    cfg.threads = threads;
    cfg.faults.enabled = true;
    cfg.faults.seed = 13;
    cfg.faults.script = kScript;
    cfg.faults.random.horizon = kTicks;
    cfg.faults.random.drops = 10;
    cfg.faults.random.stales = 10;
    cfg.faults.random.stucks = 20;
    cfg.faults.random.noises = 20;
    cfg.faults.random.freezes = 20;
    return cfg;
}

std::unique_ptr<core::Coordinator>
buildFleet(const core::CoordinationConfig &cfg, unsigned servers)
{
    sim::FleetSpec spec;
    spec.servers = servers;
    sim::FleetGen gen(spec);
    return std::make_unique<core::Coordinator>(
        cfg, gen.topology(), model::bladeA(), gen.traces());
}

/** FNV-1a over @p s. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void
appendDegrade(std::string &out, const fault::DegradeStats &d)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu\n",
                  d.outage_ticks, d.outage_steps, d.restarts,
                  d.lease_expiries, d.lease_fallback_steps,
                  d.ec_fallback_steps, d.dropped_budgets, d.stale_budgets,
                  d.stuck_actuations, d.noisy_reads);
    out += buf;
}

/**
 * The run's outcome as text: the summary in hexfloat, the summed
 * DegradeStats, then every server's P-state, EC frequency and
 * reference, SM reference and budget state, and both controllers'
 * DegradeStats. Equal texts mean bit-identical controller state.
 */
std::string
outcomeText(const core::Coordinator &coord)
{
    const sim::MetricsSummary m = coord.summary();
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "ticks=%zu energy=%a mean=%a peak=%a sm=%a em=%a gm=%a "
                  "perf=%a\n",
                  m.ticks, m.energy, m.mean_power, m.peak_power,
                  m.sm_violation, m.em_violation, m.gm_violation,
                  m.perf_loss);
    std::string out = buf;
    appendDegrade(out, m.degrade);
    const size_t n = coord.cluster().numServers();
    for (size_t i = 0; i < n; ++i) {
        const auto &ec = *coord.ecs()[i];
        const auto &sm = *coord.sms()[i];
        std::snprintf(buf, sizeof buf, "%zu p%zu f=%a r=%a cap=%a %a %a\n",
                      i, coord.cluster().server(i).pstate(),
                      ec.continuousFreq(), ec.reference(), sm.reference(),
                      sm.effectiveCap(), sm.epochViolationRate());
        out += buf;
        appendDegrade(out, ec.degradeStats());
        appendDegrade(out, sm.degradeStats());
    }
    return out;
}

/** Outcome plus both control-plane CSVs of one logged run. */
struct Logged
{
    std::string outcome;
    std::string control_csv;
    std::string cascade_csv;
};

Logged
collectLogged(const core::Coordinator &coord)
{
    Logged l;
    l.outcome = outcomeText(coord);
    std::ostringstream control, cascade;
    coord.controlLog()->writeCsv(control);
    coord.controlLog()->writeCascadeCsv(cascade);
    l.control_csv = control.str();
    l.cascade_csv = cascade.str();
    return l;
}

core::CoordinationConfig
loggedConfig(unsigned threads)
{
    core::CoordinationConfig cfg = kernelConfig(threads);
    cfg.log_control_plane = true;
    cfg.observability.cascade = true;
    return cfg;
}

const Logged &
loggedReference()
{
    static const Logged ref = [] {
        auto coord = buildFleet(loggedConfig(1), kServers);
        coord->run(kTicks);
        return collectLogged(*coord);
    }();
    return ref;
}

void
expectLoggedEqual(const Logged &ref, const Logged &got)
{
    // Compared by digest first so a mismatch does not print megabytes.
    EXPECT_EQ(fnv1a(ref.outcome), fnv1a(got.outcome));
    EXPECT_EQ(fnv1a(ref.control_csv), fnv1a(got.control_csv));
    EXPECT_EQ(fnv1a(ref.cascade_csv), fnv1a(got.cascade_csv));
    EXPECT_EQ(ref.control_csv.size(), got.control_csv.size());
    EXPECT_EQ(ref.cascade_csv.size(), got.cascade_csv.size());
}

TEST(FleetKernels, FaultCampaignMatchesPinnedDigest)
{
    auto serial = buildFleet(kernelConfig(1), kServers);
    serial->run(kTicks);
    const std::string text = outcomeText(*serial);
    const fault::DegradeStats d = serial->degradeStats();
    std::printf("kernel digest: outcome_fnv1a=%llu bytes=%zu\n",
                static_cast<unsigned long long>(fnv1a(text)), text.size());

    // Every EC/SM degradation path of the campaign fired.
    EXPECT_GT(serial->ecs()[10]->degradeStats().outage_ticks, 0u);
    EXPECT_GT(serial->sms()[10]->degradeStats().ec_fallback_steps, 0u);
    EXPECT_EQ(serial->sms()[20]->degradeStats().restarts, 1u);
    EXPECT_GT(serial->ecs()[30]->degradeStats().stuck_actuations, 0u);
    EXPECT_GT(serial->ecs()[40]->degradeStats().noisy_reads, 0u);
    EXPECT_GT(serial->ecs()[41]->degradeStats().noisy_reads, 0u);
    EXPECT_EQ(serial->sms()[4500]->degradeStats().lease_expiries, 1u);
    EXPECT_EQ(serial->sms()[60]->degradeStats().lease_expiries, 1u);
    EXPECT_EQ(serial->ecs()[3000]->degradeStats().restarts, 1u);
    EXPECT_GT(d.lease_fallback_steps, 0u);
    unsigned long sm_stuck = 0;
    for (const auto &sm : serial->sms())
        sm_stuck += sm->degradeStats().stuck_actuations;
    EXPECT_GT(sm_stuck, 0u);

    EXPECT_EQ(fnv1a(text), 15444167314424778980ull);
    EXPECT_EQ(text.size(), 636058u);

    auto parallel = buildFleet(kernelConfig(4), kServers);
    parallel->run(kTicks);
    EXPECT_EQ(fnv1a(text), fnv1a(outcomeText(*parallel)));
}

TEST(FleetKernels, ControlLogAndCascadeMatchAcrossThreads)
{
    const Logged &ref = loggedReference();
    std::printf("kernel log digest: outcome=%llu control=%llu/%zu "
                "cascade=%llu/%zu\n",
                static_cast<unsigned long long>(fnv1a(ref.outcome)),
                static_cast<unsigned long long>(fnv1a(ref.control_csv)),
                ref.control_csv.size(),
                static_cast<unsigned long long>(fnv1a(ref.cascade_csv)),
                ref.cascade_csv.size());
    EXPECT_EQ(fnv1a(ref.outcome), 15444167314424778980ull);
    EXPECT_EQ(fnv1a(ref.control_csv), 17944059230297952917ull);
    EXPECT_EQ(ref.control_csv.size(), 12179799u);
    EXPECT_EQ(fnv1a(ref.cascade_csv), 10359390665529390996ull);
    EXPECT_EQ(ref.cascade_csv.size(), 1925904u);
    EXPECT_GT(ref.cascade_csv.size(), 1000u);

    for (unsigned threads : {4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto coord = buildFleet(loggedConfig(threads), kServers);
        coord->run(kTicks);
        expectLoggedEqual(ref, collectLogged(*coord));
    }
}

TEST(FleetKernels, CheckpointResumeKeepsKernelState)
{
    // Snapshot mid-campaign (outages, stuck windows and dropped leases
    // all in flight), restore into a twin at another thread count.
    auto first = buildFleet(loggedConfig(4), kServers);
    first->run(kSplit);
    ckpt::SnapshotWriter w;
    first->saveState(w);
    const std::string bytes = w.serialize();

    auto resumed = buildFleet(loggedConfig(1), kServers);
    ckpt::SnapshotReader snap;
    std::string err;
    ASSERT_TRUE(snap.loadBytes(bytes, "<memory>", err)) << err;
    resumed->loadState(snap);
    resumed->run(kTicks - kSplit);
    expectLoggedEqual(loggedReference(), collectLogged(*resumed));
}

/** Metrics export and decision-trace CSV of one observed run. */
std::string
observedText(unsigned threads)
{
    core::CoordinationConfig cfg = kernelConfig(threads);
    cfg.observability.metrics = true;
    cfg.observability.trace = true;
    auto coord = buildFleet(cfg, 1000);
    coord->run(kTicks);
    std::ostringstream out;
    coord->metricsRegistry()->writeProm(out, /*skip_runtime=*/true);
    coord->traceSink()->writeCsv(out);
    return out.str();
}

TEST(FleetKernels, ObservabilityHooksMatchPinnedDigest)
{
    const std::string serial = observedText(1);
    std::printf("kernel obs digest: fnv1a=%llu bytes=%zu\n",
                static_cast<unsigned long long>(fnv1a(serial)),
                serial.size());
    EXPECT_EQ(fnv1a(serial), 14696183702905311203ull);
    EXPECT_EQ(serial.size(), 3967307u);
    EXPECT_EQ(fnv1a(serial), fnv1a(observedText(4)));
}

// ---------------------------------------------------------------------
// Electrical cappers and memory managers
// ---------------------------------------------------------------------

constexpr unsigned kCapServers = 500; // one zone: 400 blades + 100

/**
 * A CAP/MM campaign: server 5's capper is down for ticks 30-90 and
 * restarts; every capper is down for ticks 150-155 and restarts; every
 * server's P-state is stuck for ticks 100-120, while clamps are on; and
 * server 12's EC is down for ticks 40-80, leaving its capper alone.
 */
const char *const kCapScript = "outage cap 5 30 90; outage cap * 150 155; "
                               "stuck * 100 120; outage ec 12 40 80";

/** Outcome, control-log CSV and metrics/trace export of one run. */
struct CapRun
{
    std::string outcome;
    std::string control_csv;
    std::string observed;
};

core::CoordinationConfig
capConfig(unsigned threads)
{
    core::CoordinationConfig cfg = core::fleetConfig();
    cfg.threads = threads;
    cfg.enable_cap = true;
    cfg.enable_mem = true;
    cfg.cap_limit_frac = 0.8; // low enough that clamps engage often
    cfg.log_control_plane = true;
    cfg.observability.metrics = true;
    cfg.observability.trace = true;
    cfg.faults.enabled = true;
    cfg.faults.script = kCapScript;
    return cfg;
}

CapRun
collectCap(const core::Coordinator &coord)
{
    CapRun r;
    const sim::MetricsSummary m = coord.summary();
    char buf[512];
    std::snprintf(buf, sizeof buf, "energy=%a mean=%a peak=%a perf=%a\n",
                  m.energy, m.mean_power, m.peak_power, m.perf_loss);
    r.outcome = buf;
    appendDegrade(r.outcome, m.degrade);
    for (size_t i = 0; i < coord.cluster().numServers(); ++i) {
        const auto &cap = *coord.caps()[i];
        const auto &mm = *coord.mems()[i];
        const sim::Server &srv = coord.cluster().server(i);
        std::snprintf(buf, sizeof buf, "%zu p%zu mem=%d clamp=%d %a %a %lu\n",
                      i, srv.pstate(), srv.memLowPower() ? 1 : 0,
                      cap.clamping() ? 1 : 0, cap.lifetimeViolationRate(),
                      cap.epochViolationRate(), mm.engagements());
        r.outcome += buf;
        appendDegrade(r.outcome, cap.degradeStats());
    }
    std::ostringstream control, observed;
    coord.controlLog()->writeCsv(control);
    coord.metricsRegistry()->writeProm(observed, /*skip_runtime=*/true);
    coord.traceSink()->writeCsv(observed);
    r.control_csv = control.str();
    r.observed = observed.str();
    return r;
}

void
expectCapEqual(const CapRun &ref, const CapRun &got)
{
    EXPECT_EQ(fnv1a(ref.outcome), fnv1a(got.outcome));
    EXPECT_EQ(fnv1a(ref.control_csv), fnv1a(got.control_csv));
    EXPECT_EQ(fnv1a(ref.observed), fnv1a(got.observed));
    EXPECT_EQ(ref.control_csv.size(), got.control_csv.size());
    EXPECT_EQ(ref.observed.size(), got.observed.size());
}

const CapRun &
capReference()
{
    static const CapRun ref = [] {
        auto coord = buildFleet(capConfig(1), kCapServers);
        coord->run(kTicks);
        return collectCap(*coord);
    }();
    return ref;
}

TEST(FleetKernels, CapAndMemCampaignMatchesPinnedDigest)
{
    auto coord = buildFleet(capConfig(1), kCapServers);
    coord->run(kTicks);
    const CapRun &ref = capReference();
    expectCapEqual(ref, collectCap(*coord));
    std::printf("cap/mm digest: outcome=%llu/%zu control=%llu/%zu "
                "observed=%llu/%zu\n",
                static_cast<unsigned long long>(fnv1a(ref.outcome)),
                ref.outcome.size(),
                static_cast<unsigned long long>(fnv1a(ref.control_csv)),
                ref.control_csv.size(),
                static_cast<unsigned long long>(fnv1a(ref.observed)),
                ref.observed.size());

    // The campaign reached what it aims at.
    const auto &caps = coord->caps();
    EXPECT_EQ(caps[5]->degradeStats().restarts, 2u);
    EXPECT_GT(caps[5]->degradeStats().outage_steps, 0u);
    unsigned long restarts = 0, stuck = 0, engaged = 0;
    for (const auto &cap : caps) {
        restarts += cap->degradeStats().restarts;
        stuck += cap->degradeStats().stuck_actuations;
    }
    for (const auto &mm : coord->mems())
        engaged += mm->engagements();
    EXPECT_GE(restarts, kCapServers);
    EXPECT_GT(stuck, 0u);
    EXPECT_GT(engaged, 0u);
    EXPECT_NE(ref.control_csv.find("CAP/"), std::string::npos);
    EXPECT_NE(ref.control_csv.find("MM/"), std::string::npos);

    // Pinned at the commit that still ran one CAP and one MM actor per
    // server.
    EXPECT_EQ(fnv1a(ref.outcome), 9557029142175104574ull);
    EXPECT_EQ(ref.outcome.size(), 32370u);
    EXPECT_EQ(fnv1a(ref.control_csv), 7896324813218615124ull);
    EXPECT_EQ(ref.control_csv.size(), 1251792u);
    EXPECT_EQ(fnv1a(ref.observed), 1958903853132120868ull);
    EXPECT_EQ(ref.observed.size(), 2241805u);
}

TEST(FleetKernels, CapAndMemMatchAcrossThreads)
{
    for (unsigned threads : {4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto coord = buildFleet(capConfig(threads), kCapServers);
        coord->run(kTicks);
        expectCapEqual(capReference(), collectCap(*coord));
    }
}

TEST(FleetKernels, CapAndMemCheckpointResumeAcrossThreads)
{
    // Snapshot at threads 1 inside the stuck window (and after server
    // 5's capper came back), resume at threads 4.
    auto first = buildFleet(capConfig(1), kCapServers);
    first->run(kSplit - 10);
    ckpt::SnapshotWriter w;
    first->saveState(w);
    const std::string bytes = w.serialize();

    auto resumed = buildFleet(capConfig(4), kCapServers);
    ckpt::SnapshotReader snap;
    std::string err;
    ASSERT_TRUE(snap.loadBytes(bytes, "<memory>", err)) << err;
    resumed->loadState(snap);
    resumed->run(kTicks - (kSplit - 10));
    expectCapEqual(capReference(), collectCap(*resumed));
}

TEST(FleetKernels, CoordinatorRegistersNoPerServerActors)
{
    core::CoordinationConfig cfg = kernelConfig(4);
    cfg.enable_cap = true;
    cfg.enable_mem = true;
    auto coord = buildFleet(cfg, 1000);
    size_t ec_kernels = 0, sm_kernels = 0, cap_kernels = 0, mm_kernels = 0;
    for (const auto &a : coord->engine().actors()) {
        const std::string &name = a->name();
        if (name.compare(0, 3, "EC/") == 0)
            ++ec_kernels;
        if (name.compare(0, 3, "SM/") == 0)
            ++sm_kernels;
        if (name.compare(0, 4, "CAP/") == 0)
            ++cap_kernels;
        if (name.compare(0, 3, "MM/") == 0)
            ++mm_kernels;
    }
    EXPECT_EQ(ec_kernels, 1u);
    EXPECT_EQ(sm_kernels, 1u);
    EXPECT_EQ(cap_kernels, 1u);
    EXPECT_EQ(mm_kernels, 1u);
    // EMs and GMs remain one actor each; nothing scales per server.
    EXPECT_LT(coord->engine().actors().size(),
              coord->cluster().numServers() / 4);
    // The per-server objects stay reachable for callers.
    EXPECT_EQ(coord->ecs().size(), 1000u);
    EXPECT_EQ(coord->sms().size(), 1000u);
    EXPECT_EQ(coord->caps().size(), 1000u);
    EXPECT_EQ(coord->mems().size(), 1000u);
}

} // namespace
