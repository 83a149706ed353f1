#include "controllers/server_manager.h"

#include <algorithm>

#include "control/integral.h"
#include "control/stability.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/stats.h"

namespace nps {
namespace controllers {

GrantBounds
grantBounds(const sim::Server &server, size_t tick)
{
    GrantBounds b;
    if (server.platformPower(tick) == sim::PlatformPower::Off) {
        b.floor = server.spec().offWatts();
        b.max = server.spec().offWatts();
        return b;
    }
    const auto &m = server.model();
    b.floor = m.idlePower(m.pstates().slowestIndex());
    b.max = m.maxPower();
    return b;
}

SmStateSoA::SmStateSoA(const SmParams &p) : params(p)
{
    if (params.r_ref_min > params.r_ref_max)
        util::fatal("SM: r_ref_min %f > r_ref_max %f", params.r_ref_min,
                    params.r_ref_max);
}

uint32_t
SmStateSoA::add(sim::Server &srv, EcStateSoA *ec, uint32_t ec_slot,
                double cap)
{
    if (cap <= 0.0)
        util::fatal("SM/%u: non-positive static cap", srv.id());
    if (params.mode == SmMode::Coordinated && !ec)
        util::fatal("SM/%u: coordinated mode requires a nested EC",
                    srv.id());
    if ((ec != nullptr) != (ref_link.size() == size()) && size() > 0)
        util::fatal("SM/%u: a store's slots must all nest on an EC or "
                    "none may",
                    srv.id());
    const auto slot = static_cast<uint32_t>(server.size());
    if (ec) {
        const std::string id = std::to_string(srv.id());
        ref_link.emplace_back(
            "SM/" + id + "->EC/" + id,
            [ec, ec_slot](const bus::ReferenceUpdate &u) {
                ec->r_ref[ec_slot] = u.r_ref;
            });
    }
    // Normalized-power stability check: the effective slope of power with
    // respect to r_ref is bounded by maxPowerSlope()/maxPower.
    double c_max = srv.model().maxPowerSlope() / srv.model().maxPower();
    if (!ctl::smGainStable(params.beta, c_max)) {
        util::warn("SM/%u: beta %f violates the stability bound 2/c_max "
                   "= %f", srv.id(), params.beta, ctl::smBetaBound(c_max));
    }
    server.push_back(&srv);
    static_cap.push_back(cap);
    dynamic_cap.push_back(cap);
    cap_ref.push_back(0.0);
    last_measurement.push_back(0.0);
    last_error.push_back(0.0);
    steps.push_back(0);
    r_ref.push_back(params.r_ref_min);
    violations.emplace_back();
    step_tick.push_back(0);
    degrade.emplace_back();
    budget_tick.push_back(0);
    trace_ctx.push_back(0);
    lease_expired.push_back(0);
    was_down.push_back(0);
    ec_fallback.push_back(0);
    if (!obs.empty())
        obs.emplace_back();
    cap_ref[slot] = effectiveCap(slot);
    return slot;
}

void
SmStateSoA::setBudget(size_t i, double watts)
{
    if (watts <= 0.0)
        util::fatal("SM/%u: non-positive budget recommendation",
                    server[i]->id());
    dynamic_cap[i] = watts;
    cap_ref[i] = effectiveCap(i);
}

void
SmStateSoA::attachObs(uint32_t slot, const std::string &name,
                      obs::MetricsRegistry *metrics, obs::TraceSink *trace)
{
    if (!metrics && !trace)
        return;
    obs.resize(size());
    Obs &o = obs[slot];
    if (metrics) {
        o.grant_clamps = metrics->counter(
            "nps_sm_grant_clamps_total", name,
            "Dynamic grants below the static cap (grant won the min)");
        o.lease_expiries = metrics->counter(
            "nps_sm_lease_expiries_total", name,
            "Budget leases that lapsed into the local fallback cap");
        o.ec_fallback_steps = metrics->counter(
            "nps_sm_ec_fallback_steps_total", name,
            "Steps spent capping P-states directly because the nested "
            "EC was down");
        o.restarts = metrics->counter("nps_sm_restarts_total", name,
                                      "Cold restarts after an SM outage");
        o.cap = metrics->gauge(
            "nps_sm_cap_watts", name,
            "Budget enforced by the SM at its most recent step");
    }
    if (trace)
        o.trace = trace->channel(name);
}

void
SmStateSoA::restartCold(size_t i, size_t tick)
{
    // A restarted SM has no memory of its integrator or of any grant its
    // parent sent while it was down; it re-enters on the static budget
    // with a fresh lease and waits for the next recommendation.
    r_ref[i] = util::clamp(params.r_ref_min, params.r_ref_min,
                           params.r_ref_max);
    last_measurement[i] = 0.0;
    last_error[i] = 0.0;
    steps[i] = 0;
    dynamic_cap[i] = static_cap[i];
    budget_tick[i] = tick;
    trace_ctx[i] = 0;
    lease_expired[i] = 0;
    cap_ref[i] = effectiveCap(i);
}

void
SmStateSoA::observe(size_t tick, size_t lo, size_t hi)
{
    Obs *o = obs.empty() ? nullptr : obs.data();
    for (size_t i = lo; i < hi; ++i)
        observeSlot(i, tick, o ? o + i : nullptr);
}

void
SmStateSoA::observeSlot(size_t i, size_t tick, Obs *o)
{
    const sim::Server &srv = *server[i];
    if (faults) {
        if (faults->down(fault::Level::SM, static_cast<long>(srv.id()),
                         tick)) {
            // A down SM records nothing — its CIM interface is dark.
            ++degrade[i].outage_ticks;
            was_down[i] = 1;
            return;
        }
        if (was_down[i]) {
            was_down[i] = 0;
            ++degrade[i].restarts;
            if (o && o->restarts)
                o->restarts->add();
            if (o && o->trace)
                o->trace->emit(tick,
                               "cold restart after outage: static "
                               "budget %.6gW, fresh lease",
                               static_cap[i]);
            restartCold(i, tick);
        }
    }
    // Violation bookkeeping runs at tick granularity and against the
    // *static* budget: dynamic grants re-provision headroom but the
    // physical fuse/fan limit is CAP_LOC, and that is the signal the
    // exposed (CIM-style) interface reports to the VMC.
    if (srv.platformPower(tick) != sim::PlatformPower::Off)
        violations[i].record(srv.lastPower() > static_cap[i] + 1e-9);
}

void
SmStateSoA::step(size_t tick, size_t lo, size_t hi)
{
    Obs *o = obs.empty() ? nullptr : obs.data();
    for (size_t i = lo; i < hi; ++i)
        stepSlot(i, tick, o ? o + i : nullptr);
}

void
SmStateSoA::stepSlot(size_t i, size_t tick, Obs *o)
{
    const sim::Server &srv = *server[i];
    const long id = static_cast<long>(srv.id());
    step_tick[i] = tick;
    if (faults && faults->down(fault::Level::SM, id, tick)) {
        ++degrade[i].outage_steps;
        return;
    }
    if (!srv.isOn(tick))
        return;

    // Lease bookkeeping: degrade to the conservative local cap when the
    // parent has gone silent past the lease, and recover the moment a
    // fresh grant lands.
    if (leaseLapsed(i, tick)) {
        if (!lease_expired[i]) {
            lease_expired[i] = 1;
            ++degrade[i].lease_expiries;
            if (o && o->lease_expiries)
                o->lease_expiries->add();
            if (o && o->trace)
                o->trace->emit(tick,
                               "lease expired (grant from tick %zu, "
                               "lease %u) -> fallback cap %.6gW",
                               static_cast<size_t>(budget_tick[i]),
                               params.lease_ticks, currentCap(i, tick));
        }
        ++degrade[i].lease_fallback_steps;
    } else {
        if (lease_expired[i] && o && o->trace)
            o->trace->emit(tick,
                           "lease recovered: fresh grant, enforcing "
                           "%.6gW",
                           effectiveCap(i));
        lease_expired[i] = 0;
    }
    const double cap = currentCap(i, tick);
    if (o && o->cap)
        o->cap->set(cap);

    const bool ec_down = faults && !ref_link.empty() &&
                         faults->down(fault::Level::EC, id, tick);
    if (params.mode == SmMode::DirectPState || ec_down) {
        // With the nested EC down nobody runs the inner loop; the SM
        // degrades to capping P-states directly, like a solo product.
        if (ec_down && params.mode == SmMode::Coordinated) {
            ++degrade[i].ec_fallback_steps;
            if (o && o->ec_fallback_steps)
                o->ec_fallback_steps->add();
            if (!ec_fallback[i] && o && o->trace)
                o->trace->emit(tick, "nested EC down -> direct "
                                     "P-state capping");
            ec_fallback[i] = 1;
        }
        stepDirect(i, tick, cap, o);
        return;
    }
    if (ec_fallback[i]) {
        ec_fallback[i] = 0;
        if (o && o->trace)
            o->trace->emit(tick, "nested EC back -> r_ref actuation "
                                 "resumed");
    }
    // One Figure 3 cycle against the cap: r_ref(k) = r_ref(k-1) -
    // beta * (cap - pow), with power normalized by the machine's peak so
    // beta is machine-independent. The release direction (power under
    // cap, error > 0) uses a reduced gain.
    cap_ref[i] = cap;
    const double measurement = srv.lastPower();
    last_measurement[i] = measurement;
    const double error = cap_ref[i] - measurement;
    last_error[i] = error;
    const double norm_error = error / srv.model().maxPower();
    const double beta =
        params.beta * (error > 0.0 ? params.release_gain_ratio : 1.0);
    r_ref[i] = ctl::integralStep(r_ref[i], -beta, norm_error,
                                 params.r_ref_min, params.r_ref_max);
    ref_link[i].send(r_ref[i], step_tick[i]);
    ++steps[i];
}

void
SmStateSoA::stepDirect(size_t i, size_t tick, double cap, Obs *o)
{
    sim::Server &srv = *server[i];
    double pow = srv.lastPower();
    const auto &m = srv.model();
    size_t p = srv.pstate();
    size_t slowest = srv.spec().pstates().slowestIndex();
    size_t q = p;
    if (pow > cap) {
        // Hardware cappers clamp immediately: jump to the fastest state
        // predicted to respect the budget for the current load.
        double demand = srv.lastRealUtil();
        while (q < slowest && m.powerForDemand(q, demand) > cap)
            ++q;
    } else if (pow < cap * (1.0 - params.unthrottle_margin) && p > 0) {
        // Solo cappers restore performance when comfortably under budget.
        q = p - 1;
    }
    if (q == p)
        return;
    if (faults && faults->pstateStuck(static_cast<long>(srv.id()), tick)) {
        // The firmware actuator swallowed the write.
        ++degrade[i].stuck_actuations;
        return;
    }
    if (o && o->trace)
        o->trace->emit(tick, "%s P%zu -> P%zu: pow=%.6gW cap=%.6gW",
                       q > p ? "throttle" : "unthrottle", p, q, pow, cap);
    srv.setPState(q);
}

void
SmStateSoA::saveState(uint32_t i, ckpt::SectionWriter &w) const
{
    w.putDouble(cap_ref[i]);
    w.putDouble(last_measurement[i]);
    w.putDouble(last_error[i]);
    w.putU64(steps[i]);
    violations[i].saveState(w);
    w.putDouble(dynamic_cap[i]);
    w.putDouble(r_ref[i]);
    w.putU64(step_tick[i]);
    degrade[i].saveState(w);
    w.putU64(budget_tick[i]);
    w.putU32(trace_ctx[i]);
    w.putBool(lease_expired[i] != 0);
    w.putBool(was_down[i] != 0);
    w.putBool(ec_fallback[i] != 0);
    w.putBool(!ref_link.empty());
    if (!ref_link.empty())
        ref_link[i].saveState(w);
}

void
SmStateSoA::loadState(uint32_t i, ckpt::SectionReader &r,
                      const std::string &name)
{
    cap_ref[i] = r.getDouble();
    last_measurement[i] = r.getDouble();
    last_error[i] = r.getDouble();
    steps[i] = r.getU64();
    violations[i].loadState(r);
    dynamic_cap[i] = r.getDouble();
    r_ref[i] = util::clamp(r.getDouble(), params.r_ref_min,
                           params.r_ref_max);
    step_tick[i] = r.getU64();
    degrade[i].loadState(r);
    budget_tick[i] = r.getU64();
    trace_ctx[i] = r.getU32();
    lease_expired[i] = r.getBool() ? 1 : 0;
    was_down[i] = r.getBool() ? 1 : 0;
    ec_fallback[i] = r.getBool() ? 1 : 0;
    const bool has_link = r.getBool();
    if (has_link != !ref_link.empty())
        util::fatal("SM %s restore: reference-link presence mismatch "
                    "(snapshot %d, rebuilt %d)",
                    name.c_str(), has_link ? 1 : 0,
                    ref_link.empty() ? 0 : 1);
    if (has_link)
        ref_link[i].loadState(r);
}

ServerManager::ServerManager(sim::Server &server, EfficiencyController *ec,
                             double static_cap, const Params &params)
    : store_(std::make_shared<SmStateSoA>(params)),
      slot_(0),
      name_("SM/" + std::to_string(server.id()))
{
    store_->add(server, ec ? &ec->store() : nullptr, ec ? ec->slot() : 0,
                static_cap);
}

ServerManager::ServerManager(std::shared_ptr<SmStateSoA> store,
                             uint32_t slot)
    : store_(std::move(store)),
      slot_(slot),
      name_("SM/" + std::to_string(store_->server[slot_]->id()))
{
}

void
ServerManager::setBudget(double watts, size_t tick, uint32_t trace)
{
    SmStateSoA &st = *store_;
    st.setBudget(slot_, watts);
    st.budget_tick[slot_] = tick;
    st.trace_ctx[slot_] = trace;
    if (st.params.mode == SmMode::Coordinated &&
        watts < st.static_cap[slot_] && !st.obs.empty()) {
        const SmStateSoA::Obs &o = st.obs[slot_];
        if (o.grant_clamps)
            o.grant_clamps->add();
        if (o.trace)
            o.trace->emit(tick,
                          "clamped budget %.6gW -> %.6gW: grant < static",
                          st.static_cap[slot_], watts);
    }
}

void
ServerManager::attachControlLog(bus::ControlPlaneLog *log)
{
    if (!store_->ref_link.empty())
        store_->ref_link[slot_].attachLog(log);
}

void
ServerManager::attachTransport(bus::Transport *transport,
                               const bus::OwnerFn &owner)
{
    if (store_->ref_link.empty())
        return;
    const int rank =
        owner ? owner(bus::OwnerLevel::Sm, static_cast<long>(server().id()))
              : 0;
    store_->ref_link[slot_].setTransport(transport, rank);
}

} // namespace controllers
} // namespace nps
