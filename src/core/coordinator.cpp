#include "core/coordinator.h"

#include <algorithm>

#include "util/logging.h"

namespace nps {
namespace core {

namespace {

/** One shared spec replicated per server (homogeneous fleet). */
std::vector<std::shared_ptr<const model::MachineSpec>>
replicateSpec(const model::MachineSpec &spec, unsigned num_servers)
{
    return std::vector<std::shared_ptr<const model::MachineSpec>>(
        num_servers, std::make_shared<const model::MachineSpec>(spec));
}

} // namespace

Coordinator::Coordinator(const CoordinationConfig &config,
                         const sim::Topology &topo,
                         const model::MachineSpec &spec,
                         const std::vector<trace::UtilizationTrace> &traces,
                         bool keep_series)
    : Coordinator(config, topo, replicateSpec(spec, topo.num_servers),
                  traces, keep_series)
{
}

Coordinator::Coordinator(
    const CoordinationConfig &config, const sim::Topology &topo,
    const std::vector<std::shared_ptr<const model::MachineSpec>> &specs,
    const std::vector<trace::UtilizationTrace> &traces, bool keep_series)
    : config_(config.resolved()),
      topo_(topo),
      cluster_(std::make_unique<sim::Cluster>(topo, specs, traces,
                                              config_.budgets,
                                              config_.alpha_v,
                                              config_.alpha_m)),
      metrics_(keep_series),
      engine_(std::make_unique<sim::Engine>(*cluster_, metrics_))
{
    engine_->setThreads(config_.threads);
    buildControllers();
}

void
Coordinator::buildFaultInjector()
{
    if (!config_.faults.anyFaults())
        return;
    // Materialize the whole campaign up front: the injector is immutable
    // afterwards, which is what keeps fault queries thread-safe and the
    // run bit-identical across thread counts (docs/FAULTS.md).
    fault::FaultSchedule schedule;
    if (!config_.faults.script.empty())
        schedule = fault::FaultSchedule::parse(config_.faults.script);
    if (config_.faults.random.any()) {
        schedule.merge(fault::FaultSchedule::randomized(
            config_.faults.random, config_.faults.seed,
            cluster_->numServers(), cluster_->numEnclosures()));
    }
    injector_ = std::make_unique<fault::FaultInjector>(
        std::move(schedule), config_.faults.seed);
}

void
Coordinator::buildControllers()
{
    buildFaultInjector();

    // Innermost levels first, exactly the pre-split construction order:
    // the per-server loops, then the enclosure level above them, then
    // the GM tree, then the VMC consuming every level's feeds. Each
    // level is its own builder so a hosting runtime (core/dist.cpp) can
    // reason about — and a reader can find — one management level at a
    // time.
    buildServerLevel();
    buildEnclosureLevel();
    if (config_.enable_gm && config_.enable_sm)
        buildGroupManagers();
    buildVmController();

    // One log serves both the control-log and the cascade views; a run
    // that wants only the cascade keeps only the trace-stamped events.
    if (config_.log_control_plane || config_.observability.cascade) {
        control_log_ = std::make_unique<bus::ControlPlaneLog>(
            !config_.log_control_plane);
        attachControlLog();
    }

    if (config_.observability.any()) {
        obs_ = std::make_unique<obs::Observability>(config_.observability);
        attachObservability();
    }
}

void
Coordinator::buildServerLevel()
{
    sim::Cluster &cl = *cluster_;
    const fault::FaultInjector *inj = injector_.get();

    // Innermost first: the EC of every server, one store slot per
    // server (slot == id) run by one kernel actor; ecs_ holds the
    // per-server views.
    if (config_.enable_ec) {
        auto store = std::make_shared<controllers::EcStateSoA>(config_.ec);
        store->faults = inj;
        ecs_.reserve(cl.numServers());
        for (auto &srv : cl.servers()) {
            ecs_.push_back(std::make_shared<controllers::EfficiencyController>(
                store, store->add(srv)));
        }
        engine_->addActor(
            std::make_shared<controllers::EcKernel>("EC/fleet", store));
        ec_store_ = std::move(store);
    }

    // SMs nested on the EC slots (or standalone direct cappers), the
    // same way.
    if (config_.enable_sm) {
        auto store = std::make_shared<controllers::SmStateSoA>(config_.sm);
        store->faults = inj;
        sms_.reserve(cl.numServers());
        for (auto &srv : cl.servers()) {
            const uint32_t slot = store->add(srv, ec_store_.get(), srv.id(),
                                             cl.capLoc(srv.id()));
            sms_.push_back(
                std::make_shared<controllers::ServerManager>(store, slot));
        }
        engine_->addActor(
            std::make_shared<controllers::SmKernel>("SM/fleet", store));
    }

    // Optional electrical cappers, parallel to the ECs: one capper per
    // server, run by one kernel actor (slot == id).
    if (config_.enable_cap) {
        caps_.reserve(cl.numServers());
        for (auto &srv : cl.servers()) {
            caps_.push_back(std::make_shared<controllers::ElectricalCapper>(
                srv, config_.cap_limit_frac * srv.model().maxPower(),
                config_.cap));
            caps_.back()->setFaultInjector(inj);
        }
        engine_->addActor(std::make_shared<controllers::CapKernel>(
            "CAP/fleet",
            std::make_shared<sim::ObjectSlots<controllers::ElectricalCapper>>(
                caps_, config_.cap.period)));
    }

    // Optional memory managers: the second per-server actuator, the
    // same way.
    if (config_.enable_mem) {
        mems_.reserve(cl.numServers());
        for (auto &srv : cl.servers()) {
            mems_.push_back(std::make_shared<controllers::MemoryManager>(
                srv, config_.mem));
        }
        engine_->addActor(std::make_shared<controllers::MmKernel>(
            "MM/fleet",
            std::make_shared<sim::ObjectSlots<controllers::MemoryManager>>(
                mems_, config_.mem.period)));
    }
}

void
Coordinator::buildEnclosureLevel()
{
    sim::Cluster &cl = *cluster_;

    // EMs need the blade SMs to push budgets into.
    if (config_.enable_em && config_.enable_sm) {
        for (const auto &enc : cl.enclosures()) {
            std::vector<controllers::ServerManager *> blades;
            for (sim::ServerId sid : enc.members())
                blades.push_back(sms_[sid].get());
            auto em = std::make_shared<controllers::EnclosureManager>(
                cl, enc.id(), std::move(blades), cl.capEnc(enc.id()),
                config_.em);
            em->setFaultInjector(injector_.get());
            ems_.push_back(em);
            engine_->addActor(em);
        }
    }
}

void
Coordinator::buildVmController()
{
    if (!config_.enable_vmc)
        return;

    // The VMC consumes the violation feeds of every capping level.
    controllers::VmController::Feedback feedback;
    if (config_.vmc.use_violation_feedback) {
        for (auto &sm : sms_)
            feedback.local.push_back(sm.get());
        for (auto &em : ems_)
            feedback.enclosure.push_back(em.get());
        if (!gms_.empty()) {
            feedback.group = gms_.front().get();
            for (size_t g = 1; g < gms_.size(); ++g)
                feedback.subgroup.push_back(gms_[g].get());
        }
    }
    vmc_ = std::make_shared<controllers::VmController>(
        *cluster_, std::move(feedback), config_.vmc);
    vmc_->setFaultInjector(injector_.get());
    engine_->addActor(vmc_);
}

void
Coordinator::buildGroupManagers()
{
    sim::Cluster &cl = *cluster_;

    if (!topo_.hasTree()) {
        // The paper's flat Figure 2: one GM over every EM and every
        // standalone SM.
        std::vector<controllers::EnclosureManager *> em_ptrs;
        for (auto &em : ems_)
            em_ptrs.push_back(em.get());
        std::vector<controllers::ServerManager *> standalone;
        if (ems_.empty()) {
            // Without EMs every server is a direct child of the GM.
            for (auto &sm : sms_)
                standalone.push_back(sm.get());
        } else {
            for (sim::ServerId sid : cl.standaloneServers())
                standalone.push_back(sms_[sid].get());
        }
        std::vector<controllers::ServerManager *> all;
        for (auto &sm : sms_)
            all.push_back(sm.get());
        auto gm = std::make_shared<controllers::GroupManager>(
            cl, std::move(em_ptrs), std::move(standalone), std::move(all),
            cl.capGrp(), config_.gm);
        gm->setFaultInjector(injector_.get());
        gms_.push_back(gm);
        engine_->addActor(gm);
        return;
    }

    long next_id = 0;
    buildGroupNode(topo_.tree.front(), next_id);

    // Pre-order registration: GMs share one period, and the engine steps
    // same-period actors in insertion order, so a parent's grant always
    // lands before its children subdivide within the same tick.
    for (auto &gm : gms_)
        engine_->addActor(gm);
}

controllers::GroupManager *
Coordinator::buildGroupNode(const sim::TopologyNode &node, long &next_id)
{
    sim::Cluster &cl = *cluster_;
    const long id = next_id++;
    const bool is_root = id == 0;
    const size_t slot = gms_.size();
    gms_.push_back(nullptr); // reserve the pre-order slot

    controllers::GroupManager::Children ch;
    for (const sim::TopologyNode &child : node.children)
        ch.groups.push_back(buildGroupNode(child, next_id));
    std::vector<sim::ServerId> scope;
    for (auto *g : ch.groups) {
        for (auto *sm : g->allServers())
            scope.push_back(sm->server().id());
    }
    for (unsigned e : node.enclosures) {
        const auto &members = cl.enclosure(e).members();
        scope.insert(scope.end(), members.begin(), members.end());
        if (!ems_.empty()) {
            ch.enclosures.push_back(ems_[e].get());
        } else {
            // No EM level deployed: the blades report directly to this
            // GM, mirroring the flat builder's fallback.
            for (sim::ServerId sid : members)
                ch.standalone.push_back(sms_[sid].get());
        }
    }
    for (unsigned s : node.servers) {
        scope.push_back(s);
        ch.standalone.push_back(sms_[s].get());
    }
    std::sort(scope.begin(), scope.end());
    for (sim::ServerId sid : scope)
        ch.all_servers.push_back(sms_[sid].get());

    // The root enforces the paper's CAP_GRP; an inner node caps its own
    // scope with the same fractional savings off its maximum power.
    double cap;
    if (is_root) {
        cap = cl.capGrp();
    } else {
        double max_pow = 0.0;
        for (sim::ServerId sid : scope)
            max_pow += cl.serverMaxPower(sid);
        cap = (1.0 - config_.budgets.grp_off_frac) * max_pow;
    }

    auto gm = std::make_shared<controllers::GroupManager>(
        cl, id, is_root ? "GM" : "GM/" + node.name, std::move(ch), cap,
        config_.gm);
    gm->setFaultInjector(injector_.get());
    gms_[slot] = gm;
    return gm.get();
}

void
Coordinator::attachStreamHealth(const fault::StreamHealth *health)
{
    // Stream liveness is a per-server property, so only the links that
    // terminate at a server consult the oracle: the EMs' per-blade
    // grants and the GMs' standalone / direct-to-server channels.
    for (auto &em : ems_)
        em->setStreamHealth(health);
    for (auto &gm : gms_)
        gm->setStreamHealth(health);
}

/**
 * Register every channel with the log in the canonical wiring order, so
 * the roster — and therefore each merged CSV — is the same in every
 * process and at every thread count. SMs, cappers and memory managers
 * send only unstamped references and telemetry, so a traced-only log
 * registers just the budget-granting levels and the VMC's polls.
 */
void
Coordinator::attachControlLog()
{
    bus::ControlPlaneLog *log = control_log_.get();
    const bool all = !log->tracedOnly();
    if (all) {
        for (auto &sm : sms_)
            sm->attachControlLog(log);
    }
    for (auto &em : ems_)
        em->attachControlLog(log);
    for (auto &gm : gms_)
        gm->attachControlLog(log);
    if (all) {
        for (auto &cap : caps_)
            cap->attachControlLog(log);
        for (auto &mm : mems_)
            mm->attachControlLog(log);
    }
    if (vmc_)
        vmc_->attachControlLog(log);
}

void
Coordinator::attachTransport(bus::Transport *transport,
                             const bus::OwnerFn &owner)
{
    // Canonical wire-id assignment order (mirrors attachControlLog):
    // every process of a distributed run registers links in exactly
    // this sequence, which is what lets the dense ids agree across
    // ranks without any id-exchange protocol.
    for (auto &sm : sms_)
        sm->attachTransport(transport, owner);
    for (auto &em : ems_)
        em->attachTransport(transport, owner);
    for (auto &gm : gms_)
        gm->attachTransport(transport, owner);
    for (auto &cap : caps_)
        cap->attachTransport(transport, owner);
    for (auto &mm : mems_)
        mm->attachTransport(transport, owner);
    if (vmc_)
        vmc_->attachTransport(transport, owner);
}

/**
 * Hand every controller its metrics cells and trace channel, register
 * the run-summary series, and point the engine at the profiler. Runs
 * once at construction, single-threaded, before any tick — the
 * registration side of the determinism recipe (docs/OBSERVABILITY.md).
 */
void
Coordinator::attachObservability()
{
    obs::MetricsRegistry *reg = obs_->metrics();
    obs::TraceSink *trace = obs_->trace();

    for (auto &ec : ecs_)
        ec->attachObs(reg, trace);
    for (auto &sm : sms_)
        sm->attachObs(reg, trace);
    for (auto &em : ems_)
        em->attachObs(reg, trace);
    for (auto &gm : gms_)
        gm->attachObs(reg, trace);
    for (auto &cap : caps_)
        cap->attachObs(reg, trace);
    for (auto &mm : mems_)
        mm->attachObs(reg, trace);
    if (vmc_)
        vmc_->attachObs(reg, trace);

    if (reg) {
        obs_ticks_ = reg->gauge("nps_run_ticks", "",
                                "Simulated ticks so far");
        obs_energy_ = reg->gauge("nps_run_energy_watt_ticks", "",
                                 "Total energy consumed (watt-ticks)");
        obs_mean_power_ = reg->gauge("nps_run_mean_power_watts", "",
                                     "Mean group power");
        obs_peak_power_ = reg->gauge("nps_run_peak_power_watts", "",
                                     "Peak group power in any tick");
        const char *viol_help =
            "Fraction of scope-ticks spent over the level's budget";
        obs_viol_sm_ = reg->gauge("nps_run_violation_frac", "sm",
                                  viol_help);
        obs_viol_em_ = reg->gauge("nps_run_violation_frac", "em",
                                  viol_help);
        obs_viol_gm_ = reg->gauge("nps_run_violation_frac", "gm",
                                  viol_help);
        obs_perf_loss_ = reg->gauge("nps_run_perf_loss_frac", "",
                                    "1 - served / demanded useful work");
        if (trace) {
            obs_trace_dropped_ = reg->gauge(
                "nps_trace_dropped_total", "",
                "Decision-trace events evicted by the ring capacity");
        }
        using DS = fault::DegradeStats;
        const char *deg_help =
            "Graceful-degradation counters summed across controllers";
        const std::pair<const char *, unsigned long DS::*> fields[] = {
            {"outage_ticks", &DS::outage_ticks},
            {"outage_steps", &DS::outage_steps},
            {"restarts", &DS::restarts},
            {"lease_expiries", &DS::lease_expiries},
            {"lease_fallback_steps", &DS::lease_fallback_steps},
            {"ec_fallback_steps", &DS::ec_fallback_steps},
            {"dropped_budgets", &DS::dropped_budgets},
            {"stale_budgets", &DS::stale_budgets},
            {"stuck_actuations", &DS::stuck_actuations},
            {"noisy_reads", &DS::noisy_reads},
        };
        for (const auto &f : fields) {
            obs_degrade_.emplace_back(
                reg->gauge("nps_degrade_total", f.first, deg_help),
                f.second);
        }
    }

    if (obs_->profiler())
        engine_->setProfiler(obs_->profiler());
}

/** Refresh the run-summary gauges from the collector. */
void
Coordinator::updateRunGauges()
{
    if (!obs_ticks_)
        return;
    const sim::MetricsSummary s = summary();
    obs_ticks_->set(static_cast<double>(s.ticks));
    obs_energy_->set(s.energy);
    obs_mean_power_->set(s.mean_power);
    obs_peak_power_->set(s.peak_power);
    obs_viol_sm_->set(s.sm_violation);
    obs_viol_em_->set(s.em_violation);
    obs_viol_gm_->set(s.gm_violation);
    obs_perf_loss_->set(s.perf_loss);
    if (obs_trace_dropped_) {
        obs_trace_dropped_->set(
            static_cast<double>(obs_->trace()->totalDropped()));
    }
    for (const auto &g : obs_degrade_)
        g.first->set(static_cast<double>(s.degrade.*(g.second)));
}

size_t
Coordinator::run(size_t ticks)
{
    size_t done = engine_->run(ticks);
    updateRunGauges();
    return done;
}

fault::DegradeStats
Coordinator::degradeStats() const
{
    fault::DegradeStats total;
    for (const auto &ec : ecs_)
        total += ec->degradeStats();
    for (const auto &sm : sms_)
        total += sm->degradeStats();
    for (const auto &em : ems_)
        total += em->degradeStats();
    for (const auto &cap : caps_)
        total += cap->degradeStats();
    for (const auto &gm : gms_)
        total += gm->degradeStats();
    if (vmc_)
        total += vmc_->degradeStats();
    return total;
}

sim::MetricsSummary
Coordinator::summary() const
{
    sim::MetricsSummary s = metrics_.summary();
    s.degrade = degradeStats();
    return s;
}

} // namespace core
} // namespace nps
