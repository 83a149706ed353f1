#include "controllers/group_manager.h"

#include <algorithm>

#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace nps {
namespace controllers {

GroupManager::GroupManager(sim::Cluster &cluster,
                           std::vector<EnclosureManager *> enclosures,
                           std::vector<ServerManager *> standalone,
                           std::vector<ServerManager *> all_servers,
                           double static_cap, const Params &params)
    : GroupManager(cluster, 0, "GM",
                   Children{{}, std::move(enclosures),
                            std::move(standalone),
                            std::move(all_servers)},
                   static_cap, params)
{
}

GroupManager::GroupManager(sim::Cluster &cluster, long id,
                           std::string name, Children children,
                           double static_cap, const Params &params)
    : cluster_(cluster),
      id_(id),
      groups_(std::move(children.groups)),
      enclosures_(std::move(children.enclosures)),
      standalone_(std::move(children.standalone)),
      all_servers_(std::move(children.all_servers)),
      static_cap_(static_cap),
      dynamic_cap_(static_cap),
      params_(params),
      name_(std::move(name)),
      rng_(params.seed, name_),
      child_demand_(groups_.size() + enclosures_.size() +
                        standalone_.size(),
                    0.0),
      child_history_(child_demand_.size(), 0.0),
      server_demand_(all_servers_.size(), 0.0),
      server_history_(all_servers_.size(), 0.0)
{
    if (static_cap_ <= 0.0)
        util::fatal("%s: non-positive static cap", name_.c_str());
    if (all_servers_.empty())
        util::fatal("%s: no servers", name_.c_str());
    for (auto *g : groups_) {
        if (!g)
            util::fatal("%s: null GM child", name_.c_str());
        if (g == this)
            util::fatal("%s: GM cannot parent itself", name_.c_str());
        g->has_parent_ = true;
    }
    for (auto *em : enclosures_) {
        if (!em)
            util::fatal("%s: null EM child", name_.c_str());
    }
    for (auto *sm : standalone_) {
        if (!sm)
            util::fatal("%s: null standalone SM child", name_.c_str());
    }
    scope_ids_.reserve(all_servers_.size());
    for (const auto *sm : all_servers_)
        scope_ids_.push_back(sm->server().id());
    standalone_ids_.reserve(standalone_.size());
    for (const auto *sm : standalone_)
        standalone_ids_.push_back(sm->server().id());
    track_server_ewmas_ = params_.mode == Mode::Uncoordinated;
    size_t n_children = child_demand_.size();
    if (params_.policy == DivisionPolicy::Priority &&
        params_.priorities.size() != n_children &&
        params_.priorities.size() != all_servers_.size()) {
        util::fatal("%s: Priority policy needs one priority per child",
                    name_.c_str());
    }
    if (params_.mode == Mode::Coordinated) {
        for (auto *g : groups_) {
            addChildLink(fault::Link::GmToGm, g->id(), g->name(),
                         [g](const bus::BudgetGrant &b) {
                             g->setBudget(b.watts, b.tick, b.trace);
                         });
        }
        for (auto *em : enclosures_) {
            addChildLink(fault::Link::GmToEm,
                         static_cast<long>(em->enclosureId()), em->name(),
                         [em](const bus::BudgetGrant &b) {
                             em->setBudget(b.watts, b.tick, b.trace);
                         });
        }
        for (auto *sm : standalone_) {
            addChildLink(fault::Link::GmToSm,
                         static_cast<long>(sm->server().id()), sm->name(),
                         [sm](const bus::BudgetGrant &b) {
                             sm->setBudget(b.watts, b.tick, b.trace);
                         });
        }
    } else {
        for (auto *sm : all_servers_) {
            long sid = static_cast<long>(sm->server().id());
            server_links_.push_back(std::make_unique<bus::BudgetLink>(
                fault::Link::GmToSm, sid,
                name_ + "->" + sm->name(),
                [sm](const bus::BudgetGrant &b) {
                    sm->setBudget(b.watts, b.tick, b.trace);
                }));
        }
    }
}

void
GroupManager::addChildLink(fault::Link link, long child,
                           const std::string &peer,
                           bus::BudgetLink::Sink sink)
{
    child_links_.push_back(std::make_unique<bus::BudgetLink>(
        link, child, name_ + "->" + peer, std::move(sink)));
}

void
GroupManager::setFaultInjector(const fault::FaultInjector *faults)
{
    faults_ = faults;
    for (auto &link : child_links_)
        link->setFaultInjector(faults, &degrade_);
    for (auto &link : server_links_)
        link->setFaultInjector(faults, &degrade_);
}

void
GroupManager::setStreamHealth(const fault::StreamHealth *health)
{
    for (auto &link : child_links_) {
        if (link->link() == fault::Link::GmToSm)
            link->setStreamHealth(health, &degrade_);
    }
    for (auto &link : server_links_)
        link->setStreamHealth(health, &degrade_);
}

void
GroupManager::attachControlLog(bus::ControlPlaneLog *log)
{
    for (auto &link : child_links_)
        link->attachLog(log);
    for (auto &link : server_links_)
        link->attachLog(log);
}

void
GroupManager::attachTransport(bus::Transport *transport,
                              const bus::OwnerFn &owner)
{
    const int rank = owner ? owner(bus::OwnerLevel::Gm, id_) : 0;
    for (auto &link : child_links_) {
        link->setTransport(transport, rank);
        if (transport)
            link->attachDegradeStats(&degrade_);
    }
    for (auto &link : server_links_) {
        link->setTransport(transport, rank);
        if (transport)
            link->attachDegradeStats(&degrade_);
    }
}

void
GroupManager::attachObs(obs::MetricsRegistry *metrics,
                        obs::TraceSink *trace)
{
    if (metrics) {
        obs_divisions_ = metrics->counter(
            "nps_gm_divisions_total", name_,
            "Budget divisions performed by the GM");
        obs_lease_expiries_ = metrics->counter(
            "nps_gm_lease_expiries_total", name_,
            "Parent-GM budget leases that lapsed into the fallback cap");
        obs_restarts_ = metrics->counter(
            "nps_gm_restarts_total", name_,
            "Cold restarts after a GM outage");
        obs_cap_ = metrics->gauge(
            "nps_gm_cap_watts", name_,
            "Budget divided by the GM at its most recent step");
        obs_scope_power_ = metrics->gauge(
            "nps_gm_scope_power_watts", name_,
            "Scope power observed at the GM's most recent step");
        obs_grants_ = metrics->histogram(
            "nps_gm_grant_watts", name_,
            "Per-child grants sent by the GM",
            {100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
             25000.0});
    }
    if (trace)
        obs_trace_ = trace->channel(name_);
}

void
GroupManager::setBudget(double watts)
{
    if (watts <= 0.0)
        util::fatal("%s: non-positive budget recommendation",
                    name_.c_str());
    dynamic_cap_ = watts;
}

void
GroupManager::setBudget(double watts, size_t tick, uint32_t trace)
{
    setBudget(watts);
    budget_tick_ = tick;
    trace_ctx_ = trace;
}

double
GroupManager::effectiveCap() const
{
    return std::min(static_cap_, dynamic_cap_);
}

bool
GroupManager::leaseLapsed(size_t tick) const
{
    return has_parent_ && params_.lease_ticks > 0 &&
           tick > budget_tick_ + params_.lease_ticks;
}

double
GroupManager::currentCap(size_t tick) const
{
    if (leaseLapsed(tick))
        return std::min(static_cap_, params_.lease_fallback * static_cap_);
    return effectiveCap();
}

double
GroupManager::scopePower() const
{
    // Serial left-fold in server-id order: for a full-cluster scope this
    // reproduces ClusterTick::total_power bit-for-bit (same fold). Reads
    // go straight to the SoA power array (slot == ServerId).
    const std::vector<double> &power = cluster_.serverState().power;
    double sum = 0.0;
    for (sim::ServerId id : scope_ids_)
        sum += power[id];
    return sum;
}

double
GroupManager::scopePower(size_t tick) const
{
    if (scope_tick_ != tick) {
        scope_power_ = scopePower();
        scope_tick_ = tick;
    }
    return scope_power_;
}

void
GroupManager::restartCold(size_t tick)
{
    // A restarted GM rebuilds its demand estimates from zero and has no
    // memory of past grants or of its parent's; children ride their
    // leases meanwhile.
    std::fill(child_demand_.begin(), child_demand_.end(), 0.0);
    std::fill(child_history_.begin(), child_history_.end(), 0.0);
    std::fill(server_demand_.begin(), server_demand_.end(), 0.0);
    std::fill(server_history_.begin(), server_history_.end(), 0.0);
    last_grants_.clear();
    for (auto &link : child_links_)
        link->reset();
    for (auto &link : server_links_)
        link->reset();
    dynamic_cap_ = static_cap_;
    budget_tick_ = tick;
    trace_ctx_ = 0;
    lease_expired_ = false;
}

void
GroupManager::observe(size_t tick)
{
    if (faults_) {
        if (faults_->down(fault::Level::GM, id_, tick)) {
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
                                 "cold restart after outage: static cap "
                                 "%.6gW, estimates rebuilt from zero",
                                 static_cap_);
            restartCold(tick);
        }
    }
    record(scopePower(tick) > static_cap_ + 1e-9);

    double a_short = 1.0 / params_.demand_horizon;
    double a_long = 1.0 / params_.history_horizon;

    size_t c = 0;
    for (auto *g : groups_) {
        double p = g->scopePower(tick);
        child_demand_[c] += a_short * (p - child_demand_[c]);
        child_history_[c] += a_long * (p - child_history_[c]);
        ++c;
    }
    for (auto *em : enclosures_) {
        double p = cluster_.lastEnclosurePower(em->enclosureId());
        child_demand_[c] += a_short * (p - child_demand_[c]);
        child_history_[c] += a_long * (p - child_history_[c]);
        ++c;
    }
    const std::vector<double> &power = cluster_.serverState().power;
    for (sim::ServerId id : standalone_ids_) {
        double p = power[id];
        child_demand_[c] += a_short * (p - child_demand_[c]);
        child_history_[c] += a_long * (p - child_history_[c]);
        ++c;
    }
    if (track_server_ewmas_) {
        // Uncoordinated mode only: the direct-to-server division needs
        // per-server estimates. Coordinated GMs never read these, so
        // they skip the O(scope) update (the vectors stay zero).
        for (size_t i = 0; i < scope_ids_.size(); ++i) {
            double p = power[scope_ids_[i]];
            server_demand_[i] += a_short * (p - server_demand_[i]);
            server_history_[i] += a_long * (p - server_history_[i]);
        }
    }
}

void
GroupManager::step(size_t tick)
{
    if (faults_ && faults_->down(fault::Level::GM, id_, tick)) {
        // A down GM stops refreshing child leases; child GMs, EMs and
        // standalone SMs degrade to their fallbacks when those expire.
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
                                 "parent lease expired (grant from tick "
                                 "%zu, lease %u) -> fallback cap %.6gW",
                                 budget_tick_, params_.lease_ticks,
                                 currentCap(tick));
        }
        ++degrade_.lease_fallback_steps;
    } else {
        if (lease_expired_ && obs_trace_)
            obs_trace_->emit(tick,
                             "parent lease recovered: dividing %.6gW "
                             "again",
                             effectiveCap());
        lease_expired_ = false;
    }
    // The root GM opens a new cascade epoch at every division; nested
    // GMs propagate the epoch of the parent grant they hold. Derived
    // purely from (tick, serialized grant state), so every replica of a
    // distributed run stamps identically.
    if (!has_parent_)
        trace_ctx_ = static_cast<uint32_t>(tick + 1);
    if (params_.mode == Mode::Coordinated)
        stepCoordinated(tick);
    else
        stepUncoordinated(tick);
}

void
GroupManager::stepCoordinated(size_t tick)
{
    DivisionInput in;
    in.budget = currentCap(tick);
    in.demands = params_.policy == DivisionPolicy::History
                     ? child_history_
                     : child_demand_;
    if (params_.priorities.size() == child_demand_.size())
        in.priorities = params_.priorities;

    for (auto *g : groups_) {
        // A child group's bounds aggregate over its whole subtree.
        double floor = 0.0, max_pow = 0.0;
        for (auto *sm : g->allServers()) {
            GrantBounds gb = grantBounds(sm->server(), tick);
            floor += gb.floor;
            max_pow += gb.max;
        }
        in.maxima.push_back(max_pow);
        in.floors.push_back(floor);
    }
    for (auto *em : enclosures_) {
        // Aggregate the platform-state-aware bounds of the member
        // blades: a half-dark enclosure neither needs nor can use its
        // nameplate maximum.
        double floor = 0.0, max_pow = 0.0;
        for (sim::ServerId sid :
             cluster_.enclosure(em->enclosureId()).members()) {
            GrantBounds gb = grantBounds(cluster_.server(sid), tick);
            floor += gb.floor;
            max_pow += gb.max;
        }
        in.maxima.push_back(max_pow);
        in.floors.push_back(floor);
    }
    for (auto *sm : standalone_) {
        GrantBounds gb = grantBounds(sm->server(), tick);
        in.maxima.push_back(gb.max);
        in.floors.push_back(gb.floor);
    }

    last_grants_ = divideBudget(params_.policy, in, &rng_);
    if (obs_divisions_)
        obs_divisions_->add();
    if (obs_cap_)
        obs_cap_->set(in.budget);
    if (obs_scope_power_)
        obs_scope_power_->set(scopePower(tick));
    if (obs_grants_) {
        for (double g : last_grants_)
            obs_grants_->observe(g);
    }
    if (obs_trace_) {
        obs_trace_->emit(tick,
                         "divided %.6gW (%s): %zu group, %zu enclosure, "
                         "%zu standalone grants; scope power %.6gW",
                         in.budget, policyName(params_.policy),
                         groups_.size(), enclosures_.size(),
                         standalone_.size(), scopePower(tick));
    }
    for (size_t slot = 0; slot < child_links_.size(); ++slot) {
        child_links_[slot]->setTraceStamp(trace_ctx_);
        child_links_[slot]->send(last_grants_[slot], tick);
    }
}

void
GroupManager::stepUncoordinated(size_t tick)
{
    // A solo group capper knows only servers; it pushes per-server
    // budgets straight to every iLO, overwriting any EM allocation.
    DivisionInput in;
    in.budget = currentCap(tick);
    in.demands = params_.policy == DivisionPolicy::History
                     ? server_history_
                     : server_demand_;
    if (params_.priorities.size() == all_servers_.size())
        in.priorities = params_.priorities;

    for (auto *sm : all_servers_) {
        GrantBounds gb = grantBounds(sm->server(), tick);
        in.maxima.push_back(gb.max);
        in.floors.push_back(gb.floor);
    }
    last_grants_ = divideBudget(params_.policy, in, &rng_);
    if (obs_divisions_)
        obs_divisions_->add();
    if (obs_cap_)
        obs_cap_->set(in.budget);
    if (obs_scope_power_)
        obs_scope_power_->set(scopePower(tick));
    if (obs_grants_) {
        for (double g : last_grants_)
            obs_grants_->observe(g);
    }
    if (obs_trace_) {
        obs_trace_->emit(tick,
                         "divided %.6gW (%s) directly across %zu "
                         "servers, overwriting EM grants",
                         in.budget, policyName(params_.policy),
                         all_servers_.size());
    }
    for (size_t i = 0; i < server_links_.size(); ++i) {
        server_links_[i]->setTraceStamp(trace_ctx_);
        server_links_[i]->send(last_grants_[i], tick);
    }
}

void
GroupManager::saveState(ckpt::SectionWriter &w) const
{
    ViolationTracker::saveState(w);
    w.putDouble(dynamic_cap_);
    uint64_t rng_state[4];
    rng_.getState(rng_state);
    for (uint64_t s : rng_state)
        w.putU64(s);
    w.putDoubleVec(child_demand_);
    w.putDoubleVec(child_history_);
    w.putDoubleVec(server_demand_);
    w.putDoubleVec(server_history_);
    w.putDoubleVec(last_grants_);
    w.putU64(child_links_.size());
    for (const auto &link : child_links_)
        link->saveState(w);
    w.putU64(server_links_.size());
    for (const auto &link : server_links_)
        link->saveState(w);
    degrade_.saveState(w);
    w.putU64(budget_tick_);
    w.putU32(trace_ctx_);
    w.putBool(lease_expired_);
    w.putBool(was_down_);
}

void
GroupManager::loadState(ckpt::SectionReader &r)
{
    ViolationTracker::loadState(r);
    dynamic_cap_ = r.getDouble();
    uint64_t rng_state[4];
    for (uint64_t &s : rng_state)
        s = r.getU64();
    rng_.setState(rng_state);
    child_demand_ = r.getDoubleVec();
    child_history_ = r.getDoubleVec();
    server_demand_ = r.getDoubleVec();
    server_history_ = r.getDoubleVec();
    last_grants_ = r.getDoubleVec();
    auto child_links = static_cast<size_t>(r.getU64());
    if (child_links != child_links_.size())
        util::fatal("GM %s restore: snapshot has %zu child links, "
                    "rebuilt GM has %zu — topology mismatch",
                    name_.c_str(), child_links, child_links_.size());
    for (auto &link : child_links_)
        link->loadState(r);
    auto server_links = static_cast<size_t>(r.getU64());
    if (server_links != server_links_.size())
        util::fatal("GM %s restore: snapshot has %zu server links, "
                    "rebuilt GM has %zu — topology mismatch",
                    name_.c_str(), server_links, server_links_.size());
    for (auto &link : server_links_)
        link->loadState(r);
    degrade_.loadState(r);
    budget_tick_ = static_cast<size_t>(r.getU64());
    trace_ctx_ = r.getU32();
    lease_expired_ = r.getBool();
    was_down_ = r.getBool();
    scope_tick_ = kNoTick;
}

} // namespace controllers
} // namespace nps
