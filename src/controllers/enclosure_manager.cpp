#include "controllers/enclosure_manager.h"

#include <algorithm>

#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace nps {
namespace controllers {

EnclosureManager::EnclosureManager(sim::Cluster &cluster,
                                   sim::EnclosureId enclosure,
                                   std::vector<ServerManager *> blades,
                                   double static_cap, const Params &params)
    : cluster_(cluster),
      enclosure_(enclosure),
      blades_(std::move(blades)),
      static_cap_(static_cap),
      dynamic_cap_(static_cap),
      params_(params),
      name_("EM/" + std::to_string(enclosure)),
      rng_(params.seed, name_),
      demand_ewma_(blades_.size(), 0.0),
      history_ewma_(blades_.size(), 0.0)
{
    if (blades_.empty())
        util::fatal("EM/%u: no blades", enclosure_);
    if (static_cap_ <= 0.0)
        util::fatal("EM/%u: non-positive static cap", enclosure_);
    for (auto *sm : blades_) {
        if (!sm)
            util::fatal("EM/%u: null blade SM", enclosure_);
    }
    if (params_.policy == DivisionPolicy::Priority &&
        params_.priorities.size() != blades_.size()) {
        util::fatal("EM/%u: Priority policy needs one priority per blade",
                    enclosure_);
    }
    blade_ids_.reserve(blades_.size());
    for (const auto *sm : blades_)
        blade_ids_.push_back(sm->server().id());
    for (auto *sm : blades_) {
        long sid = static_cast<long>(sm->server().id());
        grant_links_.push_back(std::make_unique<bus::BudgetLink>(
            fault::Link::EmToSm, sid,
            name_ + "->SM/" + std::to_string(sid),
            [sm](const bus::BudgetGrant &g) {
                sm->setBudget(g.watts, g.tick, g.trace);
            }));
    }
}

void
EnclosureManager::setFaultInjector(const fault::FaultInjector *faults)
{
    faults_ = faults;
    for (auto &link : grant_links_)
        link->setFaultInjector(faults, &degrade_);
}

void
EnclosureManager::setStreamHealth(const fault::StreamHealth *health)
{
    for (auto &link : grant_links_)
        link->setStreamHealth(health, &degrade_);
}

void
EnclosureManager::attachControlLog(bus::ControlPlaneLog *log)
{
    for (auto &link : grant_links_)
        link->attachLog(log);
}

void
EnclosureManager::attachTransport(bus::Transport *transport,
                                  const bus::OwnerFn &owner)
{
    const int rank =
        owner ? owner(bus::OwnerLevel::Em, static_cast<long>(enclosure_))
              : 0;
    for (auto &link : grant_links_) {
        link->setTransport(transport, rank);
        if (transport)
            link->attachDegradeStats(&degrade_);
    }
}

void
EnclosureManager::attachObs(obs::MetricsRegistry *metrics,
                            obs::TraceSink *trace)
{
    if (metrics) {
        obs_divisions_ = metrics->counter(
            "nps_em_divisions_total", name_,
            "Budget divisions performed by the EM");
        obs_lease_expiries_ = metrics->counter(
            "nps_em_lease_expiries_total", name_,
            "GM-budget leases that lapsed into the local fallback cap");
        obs_restarts_ = metrics->counter(
            "nps_em_restarts_total", name_,
            "Cold restarts after an EM outage");
        obs_cap_ = metrics->gauge(
            "nps_em_cap_watts", name_,
            "Budget divided by the EM at its most recent step");
        obs_grants_ = metrics->histogram(
            "nps_em_grant_watts", name_,
            "Per-blade grants sent by the EM",
            {25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0, 500.0});
    }
    if (trace)
        obs_trace_ = trace->channel(name_);
}

void
EnclosureManager::setBudget(double watts)
{
    if (watts <= 0.0)
        util::fatal("EM/%u: non-positive budget recommendation",
                    enclosure_);
    dynamic_cap_ = watts;
}

void
EnclosureManager::setBudget(double watts, size_t tick, uint32_t trace)
{
    setBudget(watts);
    budget_tick_ = tick;
    trace_ctx_ = trace;
}

double
EnclosureManager::effectiveCap() const
{
    return std::min(static_cap_, dynamic_cap_);
}

bool
EnclosureManager::leaseLapsed(size_t tick) const
{
    return params_.lease_ticks > 0 &&
           tick > budget_tick_ + params_.lease_ticks;
}

double
EnclosureManager::currentCap(size_t tick) const
{
    if (leaseLapsed(tick))
        return std::min(static_cap_, params_.lease_fallback * static_cap_);
    return effectiveCap();
}

void
EnclosureManager::restartCold(size_t tick)
{
    // A restarted EM has lost its demand estimates and any GM grant that
    // arrived while it was down; it re-enters on CAP_ENC with a fresh
    // lease and rebuilds its EWMAs from zero, as at construction.
    std::fill(demand_ewma_.begin(), demand_ewma_.end(), 0.0);
    std::fill(history_ewma_.begin(), history_ewma_.end(), 0.0);
    last_grants_.clear();
    for (auto &link : grant_links_)
        link->reset();
    dynamic_cap_ = static_cap_;
    budget_tick_ = tick;
    trace_ctx_ = 0;
    lease_expired_ = false;
}

void
EnclosureManager::observe(size_t tick)
{
    if (faults_) {
        if (faults_->down(fault::Level::EM,
                          static_cast<long>(enclosure_), tick)) {
            ++degrade_.outage_ticks;
            was_down_ = true;
            return;
        }
        if (was_down_) {
            was_down_ = false;
            ++degrade_.restarts;
            if (obs_restarts_)
                obs_restarts_->add();
            if (obs_trace_)
                obs_trace_->emit(tick,
                                 "cold restart after outage: CAP_ENC "
                                 "%.6gW, estimates rebuilt from zero",
                                 static_cap_);
            restartCold(tick);
        }
    }
    // Violations are reported against the static CAP_ENC — the physical
    // limit of the enclosure's power delivery and cooling.
    record(cluster_.lastEnclosurePower(enclosure_) >
           static_cap_ + 1e-9);

    double a_short = 1.0 / params_.demand_horizon;
    double a_long = 1.0 / params_.history_horizon;
    const std::vector<double> &power = cluster_.serverState().power;
    for (size_t i = 0; i < blade_ids_.size(); ++i) {
        double p = power[blade_ids_[i]];
        demand_ewma_[i] += a_short * (p - demand_ewma_[i]);
        history_ewma_[i] += a_long * (p - history_ewma_[i]);
    }
}

void
EnclosureManager::step(size_t tick)
{
    if (faults_ && faults_->down(fault::Level::EM,
                                 static_cast<long>(enclosure_), tick)) {
        // A down EM neither re-divides nor refreshes its blades' leases;
        // the SMs ride their last grants until those expire.
        ++degrade_.outage_steps;
        return;
    }
    bool lapsed = leaseLapsed(tick);
    if (lapsed) {
        if (!lease_expired_) {
            lease_expired_ = true;
            ++degrade_.lease_expiries;
            if (obs_lease_expiries_)
                obs_lease_expiries_->add();
            if (obs_trace_)
                obs_trace_->emit(tick,
                                 "GM lease expired (grant from tick "
                                 "%zu, lease %u) -> fallback cap %.6gW",
                                 budget_tick_, params_.lease_ticks,
                                 currentCap(tick));
        }
        ++degrade_.lease_fallback_steps;
    } else {
        if (lease_expired_ && obs_trace_)
            obs_trace_->emit(tick,
                             "GM lease recovered: dividing %.6gW again",
                             effectiveCap());
        lease_expired_ = false;
    }

    DivisionInput in;
    in.budget = currentCap(tick);
    in.demands = params_.policy == DivisionPolicy::History ? history_ewma_
                                                           : demand_ewma_;
    in.priorities = params_.priorities;
    for (auto *sm : blades_) {
        // Platform-state-aware bounds: a live blade cannot draw less
        // than its deepest idle power (granting less guarantees a
        // violation), and a powered-off blade is pinned at its residual
        // draw so no policy wastes budget on dark machines.
        GrantBounds gb = grantBounds(sm->server(), tick);
        in.maxima.push_back(gb.max);
        in.floors.push_back(gb.floor);
    }
    last_grants_ = divideBudget(params_.policy, in, &rng_);
    if (obs_divisions_)
        obs_divisions_->add();
    if (obs_cap_)
        obs_cap_->set(in.budget);
    if (obs_grants_) {
        for (double g : last_grants_)
            obs_grants_->observe(g);
    }
    if (obs_trace_) {
        double lo = last_grants_.empty() ? 0.0 : last_grants_[0];
        double hi = lo;
        for (double g : last_grants_) {
            lo = std::min(lo, g);
            hi = std::max(hi, g);
        }
        obs_trace_->emit(tick,
                         "divided %.6gW across %zu blades (%s): "
                         "grants %.6g..%.6gW%s",
                         in.budget, blades_.size(),
                         policyName(params_.policy), lo, hi,
                         lapsed ? " [lease fallback]" : "");
    }
    // Each grant goes out on the blade's typed budget channel; drop and
    // stale faults (and the delivery floor) are the link's business now.
    // Grants propagate the cascade epoch of the GM grant they subdivide.
    for (size_t i = 0; i < blades_.size(); ++i) {
        grant_links_[i]->setTraceStamp(trace_ctx_);
        grant_links_[i]->send(last_grants_[i], tick);
    }
}

void
EnclosureManager::saveState(ckpt::SectionWriter &w) const
{
    ViolationTracker::saveState(w);
    w.putDouble(dynamic_cap_);
    uint64_t rng_state[4];
    rng_.getState(rng_state);
    for (uint64_t s : rng_state)
        w.putU64(s);
    w.putDoubleVec(demand_ewma_);
    w.putDoubleVec(history_ewma_);
    w.putDoubleVec(last_grants_);
    w.putU64(grant_links_.size());
    for (const auto &link : grant_links_)
        link->saveState(w);
    degrade_.saveState(w);
    w.putU64(budget_tick_);
    w.putU32(trace_ctx_);
    w.putBool(lease_expired_);
    w.putBool(was_down_);
}

void
EnclosureManager::loadState(ckpt::SectionReader &r)
{
    ViolationTracker::loadState(r);
    dynamic_cap_ = r.getDouble();
    uint64_t rng_state[4];
    for (uint64_t &s : rng_state)
        s = r.getU64();
    rng_.setState(rng_state);
    demand_ewma_ = r.getDoubleVec();
    history_ewma_ = r.getDoubleVec();
    last_grants_ = r.getDoubleVec();
    auto links = static_cast<size_t>(r.getU64());
    if (links != grant_links_.size())
        util::fatal("EM %s restore: snapshot has %zu grant links, "
                    "rebuilt EM has %zu — topology mismatch",
                    name_.c_str(), links, grant_links_.size());
    for (auto &link : grant_links_)
        link->loadState(r);
    degrade_.loadState(r);
    budget_tick_ = static_cast<size_t>(r.getU64());
    trace_ctx_ = r.getU32();
    lease_expired_ = r.getBool();
    was_down_ = r.getBool();
    if (demand_ewma_.size() != blades_.size() ||
        history_ewma_.size() != blades_.size())
        util::fatal("EM %s restore: blade-count mismatch", name_.c_str());
}

} // namespace controllers
} // namespace nps
