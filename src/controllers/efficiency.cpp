#include "controllers/efficiency.h"

#include <algorithm>

#include "control/integral.h"
#include "control/stability.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/stats.h"

namespace nps {
namespace controllers {

EcStateSoA::EcStateSoA(const EcParams &p) : params(p)
{
    if (params.r_ref <= 0.0 || params.r_ref >= 1.0)
        util::fatal("EC: r_ref %f out of (0,1)", params.r_ref);
}

uint32_t
EcStateSoA::add(sim::Server &srv)
{
    if (!ctl::ecGainStable(params.lambda, params.r_ref)) {
        util::warn("EC/%u: lambda %f violates the global stability bound "
                   "1/r_ref = %f", srv.id(), params.lambda,
                   ctl::ecLambdaBound(params.r_ref));
    }
    const auto &table = srv.spec().pstates();
    const auto slot = static_cast<uint32_t>(server.size());
    server.push_back(&srv);
    r_ref.push_back(params.r_ref);
    last_measurement.push_back(0.0);
    last_error.push_back(0.0);
    steps.push_back(0);
    // The integrator starts at P0, clamped to [slowest, fastest].
    freq.push_back(util::clamp(table.fastest().freq_mhz,
                               table.slowest().freq_mhz,
                               table.fastest().freq_mhz));
    degrade.emplace_back();
    cur_tick.push_back(0);
    held_util.push_back(0.0);
    was_down.push_back(0);
    if (!obs.empty())
        obs.emplace_back();
    return slot;
}

void
EcStateSoA::attachObs(uint32_t slot, const std::string &name,
                      obs::MetricsRegistry *metrics, obs::TraceSink *trace)
{
    if (!metrics && !trace)
        return;
    obs.resize(size());
    Obs &o = obs[slot];
    if (metrics) {
        o.pstate_changes = metrics->counter(
            "nps_ec_pstate_changes_total", name,
            "P-state transitions actuated by the EC");
        o.restarts = metrics->counter("nps_ec_restarts_total", name,
                                      "Cold restarts after an EC outage");
        o.stuck = metrics->counter(
            "nps_ec_stuck_actuations_total", name,
            "P-state writes swallowed by a stuck actuator fault");
    }
    if (trace)
        o.trace = trace->channel(name);
}

void
EcStateSoA::step(size_t tick, size_t lo, size_t hi)
{
    Obs *o = obs.empty() ? nullptr : obs.data();
    for (size_t i = lo; i < hi; ++i)
        stepSlot(i, tick, o ? o + i : nullptr);
}

void
EcStateSoA::stepSlot(size_t i, size_t tick, Obs *o)
{
    sim::Server &srv = *server[i];
    if (faults &&
        faults->down(fault::Level::EC, static_cast<long>(srv.id()), tick)) {
        if (!was_down[i] && o && o->trace)
            o->trace->emit(tick, "outage begins: EC down, P-state held");
        ++degrade[i].outage_ticks;
        ++degrade[i].outage_steps;
        was_down[i] = 1;
        return;
    }
    if (was_down[i]) {
        was_down[i] = 0;
        ++degrade[i].restarts;
        if (o && o->restarts)
            o->restarts->add();
        if (o && o->trace)
            o->trace->emit(tick, "cold restart after outage: back to "
                                 "P0, integrator and r_ref reset");
        restartCold(i);
    }
    cur_tick[i] = tick;
    if (!srv.isOn(tick)) {
        // Nothing to manage; reset to full speed so a rebooted machine
        // comes back at P0, as firmware does.
        freq[i] = srv.spec().pstates().fastest().freq_mhz;
        return;
    }
    if (params.objective == EcObjective::EnergyDelay) {
        stepEnergyDelay(i, tick, o);
        return;
    }
    // One Figure 3 cycle: measure, error against r_ref, control, actuate.
    const double measurement = sensedUtil(i, tick, srv.lastApparentUtil());
    last_measurement[i] = measurement;
    const double error = r_ref[i] - measurement;
    last_error[i] = error;
    // Consumed frequency f_C = r * f at the quantized operating point.
    const double f_c = measurement * srv.frequencyMhz();
    const double gain = params.lambda * f_c / r_ref[i];
    // f(k) = f(k-1) - gain * (r_ref - r): integral law on the frequency.
    const auto &table = srv.spec().pstates();
    freq[i] = ctl::integralStep(freq[i], -gain, error,
                                table.slowest().freq_mhz,
                                table.fastest().freq_mhz);
    actuate(i, freq[i], o);
    ++steps[i];
}

void
EcStateSoA::restartCold(size_t i)
{
    // A restarted EC forgets its integrator and any r_ref its SM sent
    // while it was down; the SM re-actuates on its next step.
    freq[i] = server[i]->spec().pstates().fastest().freq_mhz;
    last_measurement[i] = 0.0;
    last_error[i] = 0.0;
    steps[i] = 0;
    r_ref[i] = params.r_ref;
}

double
EcStateSoA::sensedUtil(size_t i, size_t tick, double raw)
{
    if (!faults)
        return raw;
    long id = static_cast<long>(server[i]->id());
    if (faults->utilFrozen(id, tick)) {
        ++degrade[i].noisy_reads;
        return held_util[i];
    }
    double noise = faults->utilNoise(id, tick);
    if (noise != 0.0) {
        ++degrade[i].noisy_reads;
        raw = std::min(1.0, std::max(0.0, raw + noise));
    }
    held_util[i] = raw;
    return raw;
}

void
EcStateSoA::actuate(size_t i, double value, Obs *o)
{
    sim::Server &srv = *server[i];
    const auto &table = srv.spec().pstates();
    size_t p = params.quantize_up ? table.quantizeUp(value)
                                  : table.quantizeNearest(value);
    if (p == srv.pstate())
        return;
    if (faults && faults->pstateStuck(static_cast<long>(srv.id()),
                                      cur_tick[i])) {
        // The firmware actuator swallowed the write; the integrator keeps
        // running against the stuck plant (realistic windup).
        ++degrade[i].stuck_actuations;
        if (o && o->stuck)
            o->stuck->add();
        if (o && o->trace)
            o->trace->emit(cur_tick[i],
                           "actuator stuck: P%zu held (wanted P%zu)",
                           srv.pstate(), p);
        return;
    }
    if (o && o->pstate_changes)
        o->pstate_changes->add();
    if (o && o->trace)
        o->trace->emit(cur_tick[i],
                       "P%zu -> P%zu: f_cont=%.6g MHz r_ref=%.6g",
                       srv.pstate(), p, value, r_ref[i]);
    srv.setPState(p);
}

void
EcStateSoA::stepEnergyDelay(size_t i, size_t tick, Obs *o)
{
    // Estimate current real demand from the last measurement and pick the
    // state minimizing power * delay ~ power / relSpeed, while keeping
    // apparent utilization under the reference.
    sim::Server &srv = *server[i];
    double demand = sensedUtil(i, tick, srv.lastRealUtil());
    const auto &m = srv.model();
    const auto &table = m.pstates();
    size_t best = 0;
    double best_score = 0.0;
    bool have = false;
    for (size_t p = 0; p < table.size(); ++p) {
        if (m.apparentUtil(p, demand) > r_ref[i] && p != 0)
            continue;
        double score = m.powerForDemand(p, demand) / table.relSpeed(p);
        if (!have || score < best_score) {
            best = p;
            best_score = score;
            have = true;
        }
    }
    if (best != srv.pstate() && faults &&
        faults->pstateStuck(static_cast<long>(srv.id()), tick)) {
        ++degrade[i].stuck_actuations;
        if (o && o->stuck)
            o->stuck->add();
        return;
    }
    if (best != srv.pstate()) {
        if (o && o->pstate_changes)
            o->pstate_changes->add();
        if (o && o->trace)
            o->trace->emit(tick,
                           "P%zu -> P%zu: energy-delay best for "
                           "demand=%.6g",
                           srv.pstate(), best, demand);
    }
    srv.setPState(best);
    freq[i] = util::clamp(table.at(best).freq_mhz, table.slowest().freq_mhz,
                          table.fastest().freq_mhz);
}

void
EcStateSoA::saveState(uint32_t i, ckpt::SectionWriter &w) const
{
    w.putDouble(r_ref[i]);
    w.putDouble(last_measurement[i]);
    w.putDouble(last_error[i]);
    w.putU64(steps[i]);
    w.putDouble(freq[i]);
    degrade[i].saveState(w);
    w.putU64(cur_tick[i]);
    w.putDouble(held_util[i]);
    w.putBool(was_down[i] != 0);
}

void
EcStateSoA::loadState(uint32_t i, ckpt::SectionReader &r)
{
    r_ref[i] = r.getDouble();
    last_measurement[i] = r.getDouble();
    last_error[i] = r.getDouble();
    steps[i] = r.getU64();
    const auto &table = server[i]->spec().pstates();
    freq[i] = util::clamp(r.getDouble(), table.slowest().freq_mhz,
                          table.fastest().freq_mhz);
    degrade[i].loadState(r);
    cur_tick[i] = r.getU64();
    held_util[i] = r.getDouble();
    was_down[i] = r.getBool() ? 1 : 0;
}

EfficiencyController::EfficiencyController(sim::Server &server,
                                           const Params &params)
    : store_(std::make_shared<EcStateSoA>(params)),
      slot_(store_->add(server)),
      name_("EC/" + std::to_string(server.id()))
{
}

EfficiencyController::EfficiencyController(
    std::shared_ptr<EcStateSoA> store, uint32_t slot)
    : store_(std::move(store)),
      slot_(slot),
      name_("EC/" + std::to_string(store_->server[slot_]->id()))
{
}

} // namespace controllers
} // namespace nps
