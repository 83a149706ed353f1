#include "controllers/vm_controller.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/stats.h"

namespace nps {
namespace controllers {

VmController::VmController(sim::Cluster &cluster, Feedback feedback,
                           const Params &params)
    : cluster_(cluster),
      feedback_(std::move(feedback)),
      params_(params),
      name_("VMC"),
      b_loc_(params.use_violation_feedback ? params.buffer_init : 0.0),
      b_enc_(params.use_violation_feedback ? params.buffer_init : 0.0),
      b_grp_(params.use_violation_feedback ? params.buffer_init : 0.0),
      load_accum_(cluster.numVms(), 0.0),
      load_sq_accum_(cluster.numVms(), 0.0)
{
    if (params_.capacity_target <= 0.0 || params_.capacity_target > 1.0)
        util::fatal("VMC: capacity target %f out of (0,1]",
                    params_.capacity_target);
    if (params_.buffer_max < 0.0 || params_.buffer_max >= 1.0)
        util::fatal("VMC: buffer max %f out of [0,1)", params_.buffer_max);
    // Packed loads are (mean + spread_sigma * sd) * (1 + alpha_v), and
    // the packer takes only finite, non-negative loads.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (!(params_.spread_sigma >= 0.0 && params_.spread_sigma < kInf))
        util::fatal("VMC: spread sigma %f out of [0,inf)",
                    params_.spread_sigma);
    if (!(params_.alpha_v >= 0.0 && params_.alpha_v < kInf))
        util::fatal("VMC: alpha_v %f out of [0,inf)", params_.alpha_v);
    if (params_.use_forecast) {
        forecasters_.assign(cluster.numVms(),
                            DemandForecaster(params_.forecast));
    }
    // Wrap every feed in a typed upstream channel. The group tier mixes
    // the root GM and any nested sub-GMs; with no sub-GMs its mean is the
    // root's rate, exactly the flat Figure-2 behavior.
    for (size_t i = 0; i < feedback_.local.size(); ++i) {
        loc_channels_.push_back(std::make_unique<bus::ViolationChannel>(
            "loc" + std::to_string(i) + "->VMC", feedback_.local[i]));
    }
    for (size_t i = 0; i < feedback_.enclosure.size(); ++i) {
        enc_channels_.push_back(std::make_unique<bus::ViolationChannel>(
            "enc" + std::to_string(i) + "->VMC", feedback_.enclosure[i]));
    }
    std::vector<ViolationSource *> grp;
    if (feedback_.group)
        grp.push_back(feedback_.group);
    for (auto *s : feedback_.subgroup)
        grp.push_back(s);
    for (size_t i = 0; i < grp.size(); ++i) {
        grp_channels_.push_back(std::make_unique<bus::ViolationChannel>(
            "grp" + std::to_string(i) + "->VMC", grp[i]));
    }
}

void
VmController::attachControlLog(bus::ControlPlaneLog *log)
{
    for (auto &ch : loc_channels_)
        ch->attachLog(log);
    for (auto &ch : enc_channels_)
        ch->attachLog(log);
    for (auto &ch : grp_channels_)
        ch->attachLog(log);
}

void
VmController::attachTransport(bus::Transport *transport,
                              const bus::OwnerFn &owner)
{
    auto rank = [&](bus::OwnerLevel level, long id) {
        return owner ? owner(level, id) : 0;
    };
    // Feed order mirrors the coordinator's wiring: local[i] is SM i,
    // enclosure[i] is EM i, and the group tier is the root GM (id 0)
    // followed by the nested sub-GMs in pre-order (ids 1..N); with no
    // root feed the sub-GM ids still start at 1.
    for (size_t i = 0; i < loc_channels_.size(); ++i) {
        loc_channels_[i]->setTransport(
            transport, rank(bus::OwnerLevel::Sm, static_cast<long>(i)));
    }
    for (size_t i = 0; i < enc_channels_.size(); ++i) {
        enc_channels_[i]->setTransport(
            transport, rank(bus::OwnerLevel::Em, static_cast<long>(i)));
    }
    const long grp_base = feedback_.group ? 0 : 1;
    for (size_t i = 0; i < grp_channels_.size(); ++i) {
        grp_channels_[i]->setTransport(
            transport,
            rank(bus::OwnerLevel::Gm, grp_base + static_cast<long>(i)));
    }
}

void
VmController::attachObs(obs::MetricsRegistry *metrics,
                        obs::TraceSink *trace)
{
    if (metrics) {
        obs_epochs_ = metrics->counter(
            "nps_vmc_epochs_total", name_,
            "Completed consolidation epochs");
        obs_adoptions_ = metrics->counter(
            "nps_vmc_adoptions_total", name_,
            "Epochs whose new placement plan was adopted");
        obs_migrations_ = metrics->counter(
            "nps_vmc_migrations_total", name_, "VM migrations applied");
        obs_infeasible_ = metrics->counter(
            "nps_vmc_infeasible_total", name_,
            "Epochs whose packing was infeasible");
        obs_poweroffs_ = metrics->counter(
            "nps_vmc_poweroffs_total", name_,
            "Idle machines switched off by the VMC");
        obs_b_loc_ = metrics->gauge(
            "nps_vmc_buffer", "loc",
            "Violation-feedback buffers b_loc/b_enc/b_grp");
        obs_b_enc_ = metrics->gauge(
            "nps_vmc_buffer", "enc",
            "Violation-feedback buffers b_loc/b_enc/b_grp");
        obs_b_grp_ = metrics->gauge(
            "nps_vmc_buffer", "grp",
            "Violation-feedback buffers b_loc/b_enc/b_grp");
        obs_est_power_ = metrics->gauge(
            "nps_vmc_est_power_watts", name_,
            "Estimated power of the placement standing after the last "
            "epoch");
    }
    if (trace)
        obs_trace_ = trace->channel(name_);
}

void
VmController::restartCold()
{
    // A restarted VMC has lost its epoch accumulators, forecaster state
    // and tuned buffers; it resumes from the construction-time defaults
    // and needs a full epoch of observations before re-optimizing.
    std::fill(load_accum_.begin(), load_accum_.end(), 0.0);
    std::fill(load_sq_accum_.begin(), load_sq_accum_.end(), 0.0);
    obs_ticks_ = 0;
    double init = params_.use_violation_feedback ? params_.buffer_init
                                                 : 0.0;
    b_loc_ = init;
    b_enc_ = init;
    b_grp_ = init;
    if (params_.use_forecast) {
        forecasters_.assign(cluster_.numVms(),
                            DemandForecaster(params_.forecast));
    }
}

void
VmController::observe(size_t tick)
{
    if (faults_) {
        if (faults_->down(fault::Level::VMC, 0, tick)) {
            ++degrade_.outage_ticks;
            was_down_ = true;
            return;
        }
        if (was_down_) {
            was_down_ = false;
            ++degrade_.restarts;
            if (obs_trace_)
                obs_trace_->emit(tick,
                                 "cold restart after outage: buffers "
                                 "and epoch state reset");
            restartCold();
        }
    }
    // Coordinated: real (full-speed) utilization. Uncoordinated: the
    // apparent share a guest agent reports, which saturates with the
    // host and misreads throttled machines.
    const sim::VmStateSoA &st = cluster_.vmState();
    const std::vector<double> &seen =
        params_.use_real_util ? st.last_served : st.last_apparent_share;
    for (size_t j = 0; j < cluster_.numVms(); ++j) {
        double u = seen[j];
        load_accum_[j] += u;
        load_sq_accum_[j] += u * u;
    }
    ++obs_ticks_;
}

std::vector<double>
VmController::epochLoads()
{
    std::vector<double> loads(load_accum_.size(), 0.0);
    if (obs_ticks_ == 0)
        return loads;
    double n = static_cast<double>(obs_ticks_);
    for (size_t j = 0; j < loads.size(); ++j) {
        double mean = load_accum_[j] / n;
        double var = std::max(0.0, load_sq_accum_[j] / n - mean * mean);
        double base = mean;
        if (params_.use_forecast) {
            // Predict the next epoch's mean; stay at least at the
            // observed level so a falling forecast cannot under-pack
            // faster than demand actually falls.
            forecasters_[j].observe(mean);
            base = std::max(mean, forecasters_[j].forecast(1));
        }
        // Pack at the base plus a spread allowance so demand peaks
        // between epochs do not immediately stress the capping levels.
        double est = base + params_.spread_sigma * std::sqrt(var);
        // The real-utilization path measures useful work, so the packer
        // must re-add the virtualization overhead; the apparent path
        // already includes it (another way mis-measurement compounds).
        loads[j] = params_.use_real_util ? est * (1.0 + params_.alpha_v)
                                         : est;
    }
    return loads;
}

void
VmController::updateBuffers(size_t tick)
{
    if (!params_.use_violation_feedback) {
        b_loc_ = 0.0;
        b_enc_ = 0.0;
        b_grp_ = 0.0;
        return;
    }
    auto mean_rate =
        [tick](std::vector<std::unique_ptr<bus::ViolationChannel>> &chs) {
            if (chs.empty())
                return 0.0;
            double sum = 0.0;
            for (auto &ch : chs)
                sum += ch->poll(tick).epoch_rate;
            return sum / static_cast<double>(chs.size());
        };
    double loc_rate = mean_rate(loc_channels_);
    double enc_rate = mean_rate(enc_channels_);
    double grp_rate = mean_rate(grp_channels_);

    // Per-unit-time feedback: shorter epochs integrate the same
    // violation rate with a proportionally larger per-epoch gain.
    double gain = params_.buffer_gain *
                  static_cast<double>(params_.gain_ref_period) /
                  static_cast<double>(params_.period);
    auto tune = [this, gain](double buffer, double rate) {
        return util::clamp(params_.buffer_decay * buffer + gain * rate,
                           params_.buffer_init, params_.buffer_max);
    };
    b_loc_ = tune(b_loc_, loc_rate);
    b_enc_ = tune(b_enc_, enc_rate);
    b_grp_ = tune(b_grp_, grp_rate);

    for (auto &ch : loc_channels_)
        ch->drain();
    for (auto &ch : enc_channels_)
        ch->drain();
    for (auto &ch : grp_channels_)
        ch->drain();
}

std::vector<PackBin>
VmController::buildBins(size_t tick) const
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<PackBin> bins;
    bins.reserve(cluster_.numServers());
    for (const auto &srv : cluster_.servers()) {
        PackBin bin;
        bin.id = srv.id();
        bin.power = &srv.model();
        sim::EnclosureId enc = cluster_.enclosureOf(srv.id());
        bin.enclosure = enc == sim::Cluster::kNoEnclosure
                            ? std::numeric_limits<unsigned>::max()
                            : enc;
        bin.on = srv.platformPower(tick) != sim::PlatformPower::Off;
        bin.capacity = params_.capacity_target;
        bin.util_limit = params_.util_limit;
        bin.power_cap = params_.use_budget_constraints
                            ? (1.0 - b_loc_) * cluster_.capLoc(srv.id())
                            : kInf;
        // An unused machine draws its off power when we may switch it
        // off; otherwise it idles at the deepest P-state (the EC will
        // sink it there).
        bin.unused_watts =
            params_.allow_power_off
                ? srv.spec().offWatts()
                : srv.model().idlePower(
                      srv.model().pstates().slowestIndex());
        bins.push_back(bin);
    }
    return bins;
}

void
VmController::step(size_t tick)
{
    if (faults_ && faults_->down(fault::Level::VMC, 0, tick)) {
        // No consolidation this epoch: placements freeze where they are,
        // which is safe — the capping hierarchy still enforces budgets.
        ++degrade_.outage_steps;
        return;
    }
    updateBuffers(tick);

    std::vector<double> loads = epochLoads();
    std::vector<PackItem> items;
    items.reserve(cluster_.numVms());
    for (size_t j = 0; j < cluster_.numVms(); ++j) {
        PackItem item;
        item.vm = static_cast<sim::VmId>(j);
        item.load = loads[j];
        item.current = cluster_.serverOf(item.vm);
        items.push_back(item);
    }

    std::vector<PackBin> bins = buildBins(tick);
    PackConstraints constraints;
    if (params_.use_budget_constraints) {
        constraints.enclosure_caps.resize(cluster_.numEnclosures());
        for (size_t e = 0; e < cluster_.numEnclosures(); ++e) {
            constraints.enclosure_caps[e] =
                (1.0 - b_enc_) *
                cluster_.capEnc(static_cast<sim::EnclosureId>(e));
        }
        constraints.group_cap = (1.0 - b_grp_) * cluster_.capGrp();
    }

    PackResult packed = packGreedy(items, bins, constraints);
    ++stats_.epochs;
    if (obs_epochs_)
        obs_epochs_->add();
    if (!packed.feasible) {
        ++stats_.infeasible;
        if (obs_infeasible_)
            obs_infeasible_->add();
    }

    // Price both plans with the same estimator; the new plan also pays
    // the amortized migration overhead of Eq. (1).
    std::vector<sim::ServerId> current(items.size());
    for (size_t i = 0; i < items.size(); ++i)
        current[i] = items[i].current;
    AssignmentEval cur_eval =
        evaluateAssignment(items, bins, current, constraints);
    double cost_cur = cur_eval.est_power;
    double cost_new = packed.est_power;
    double period_ticks = static_cast<double>(params_.period);
    for (size_t i = 0; i < items.size(); ++i) {
        if (packed.assignment[i] != items[i].current) {
            const auto &dst = cluster_.server(packed.assignment[i]);
            cost_new += params_.alpha_m *
                        (static_cast<double>(params_.migration_ticks) /
                         period_ticks) *
                        items[i].load * dst.model().maxPower();
        }
    }

    // Adopt the plan when it is decisively cheaper, or when the current
    // placement no longer fits the (buffered) constraints and the plan
    // does: backing off an over-aggressive consolidation is exactly the
    // correction the violation feedback is meant to drive, even when it
    // costs power.
    bool adopt = cost_new < cost_cur * (1.0 - params_.adoption_margin) ||
                 (packed.feasible && !cur_eval.feasible);
    if (obs_trace_) {
        size_t moved = 0;
        for (size_t i = 0; i < items.size(); ++i) {
            if (packed.assignment[i] != items[i].current)
                ++moved;
        }
        size_t active_caps =
            params_.use_budget_constraints
                ? constraints.enclosure_caps.size() + 1
                : 0;
        obs_trace_->emit(tick,
                         "epoch %lu: packed %zu VMs, %zu budget "
                         "constraints active, est %.6gW vs current "
                         "%.6gW -> %s (%zu moves)%s; buffers "
                         "loc=%.4g enc=%.4g grp=%.4g",
                         stats_.epochs, items.size(), active_caps,
                         cost_new, cost_cur,
                         adopt ? "adopted" : "kept current", moved,
                         packed.feasible ? "" : " [plan infeasible]",
                         b_loc_, b_enc_, b_grp_);
    }
    if (adopt) {
        ++stats_.adoptions;
        if (obs_adoptions_)
            obs_adoptions_->add();
        stats_.last_est_power = packed.est_power;
        applyAssignment(items, packed.assignment, tick);
    } else {
        stats_.last_est_power = cost_cur;
        // Even when the placement stands, idle machines can be switched
        // off (e.g. after demand drops).
        if (params_.allow_power_off) {
            for (auto &srv : cluster_.servers()) {
                if (srv.vms().empty() && srv.isOn(tick)) {
                    srv.powerOff();
                    if (obs_poweroffs_)
                        obs_poweroffs_->add();
                }
            }
        }
    }
    if (obs_b_loc_) {
        obs_b_loc_->set(b_loc_);
        obs_b_enc_->set(b_enc_);
        obs_b_grp_->set(b_grp_);
        obs_est_power_->set(stats_.last_est_power);
    }

    // Start the next epoch's averaging window.
    std::fill(load_accum_.begin(), load_accum_.end(), 0.0);
    std::fill(load_sq_accum_.begin(), load_sq_accum_.end(), 0.0);
    obs_ticks_ = 0;
}

void
VmController::applyAssignment(const std::vector<PackItem> &items,
                              const std::vector<sim::ServerId> &assignment,
                              size_t tick)
{
    // Power on every target first so boots overlap the migrations.
    for (size_t i = 0; i < items.size(); ++i) {
        sim::Server &dst = cluster_.server(assignment[i]);
        if (dst.platformPower(tick) == sim::PlatformPower::Off)
            dst.powerOn(tick);
    }
    for (size_t i = 0; i < items.size(); ++i) {
        if (assignment[i] != items[i].current) {
            cluster_.migrateVm(items[i].vm, assignment[i], tick,
                               params_.migration_ticks);
            ++stats_.migrations;
            if (obs_migrations_)
                obs_migrations_->add();
        }
    }
    if (params_.allow_power_off) {
        for (auto &srv : cluster_.servers()) {
            if (srv.vms().empty() && srv.isOn(tick)) {
                srv.powerOff();
                if (obs_poweroffs_)
                    obs_poweroffs_->add();
            }
        }
    }
}

void
VmController::saveState(ckpt::SectionWriter &w) const
{
    w.putU64(stats_.epochs);
    w.putU64(stats_.migrations);
    w.putU64(stats_.adoptions);
    w.putU64(stats_.infeasible);
    w.putDouble(stats_.last_est_power);
    w.putDouble(b_loc_);
    w.putDouble(b_enc_);
    w.putDouble(b_grp_);
    w.putDoubleVec(load_accum_);
    w.putDoubleVec(load_sq_accum_);
    w.putU64(forecasters_.size());
    for (const auto &f : forecasters_) {
        w.putDouble(f.level());
        w.putDouble(f.trend());
        w.putU64(f.observations());
    }
    w.putU64(obs_ticks_);
    degrade_.saveState(w);
    w.putBool(was_down_);
    w.putU64(loc_channels_.size());
    for (const auto &ch : loc_channels_)
        ch->saveState(w);
    w.putU64(enc_channels_.size());
    for (const auto &ch : enc_channels_)
        ch->saveState(w);
    w.putU64(grp_channels_.size());
    for (const auto &ch : grp_channels_)
        ch->saveState(w);
}

void
VmController::loadState(ckpt::SectionReader &r)
{
    stats_.epochs = static_cast<unsigned long>(r.getU64());
    stats_.migrations = static_cast<unsigned long>(r.getU64());
    stats_.adoptions = static_cast<unsigned long>(r.getU64());
    stats_.infeasible = static_cast<unsigned long>(r.getU64());
    stats_.last_est_power = r.getDouble();
    b_loc_ = r.getDouble();
    b_enc_ = r.getDouble();
    b_grp_ = r.getDouble();
    load_accum_ = r.getDoubleVec();
    load_sq_accum_ = r.getDoubleVec();
    auto n_forecasters = static_cast<size_t>(r.getU64());
    if (n_forecasters != forecasters_.size())
        util::fatal("VMC restore: snapshot has %zu forecasters, rebuilt "
                    "VMC has %zu — config mismatch",
                    n_forecasters, forecasters_.size());
    for (auto &f : forecasters_) {
        double level = r.getDouble();
        double trend = r.getDouble();
        auto count = static_cast<size_t>(r.getU64());
        f.restoreState(level, trend, count);
    }
    obs_ticks_ = static_cast<unsigned long>(r.getU64());
    degrade_.loadState(r);
    was_down_ = r.getBool();
    auto restoreChannels =
        [&r](std::vector<std::unique_ptr<bus::ViolationChannel>> &chs,
             const char *tier) {
            auto n = static_cast<size_t>(r.getU64());
            if (n != chs.size())
                util::fatal("VMC restore: snapshot has %zu %s violation "
                            "channels, rebuilt VMC has %zu",
                            n, tier, chs.size());
            for (auto &ch : chs)
                ch->loadState(r);
        };
    restoreChannels(loc_channels_, "local");
    restoreChannels(enc_channels_, "enclosure");
    restoreChannels(grp_channels_, "group");
}

} // namespace controllers
} // namespace nps
