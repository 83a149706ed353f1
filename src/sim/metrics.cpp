#include "sim/metrics.h"

#include <algorithm>

#include "util/logging.h"

namespace nps {
namespace sim {

double
powerSavings(const MetricsSummary &baseline, const MetricsSummary &scenario)
{
    if (baseline.energy <= 0.0)
        util::fatal("powerSavings: baseline consumed no energy");
    return 1.0 - scenario.energy / baseline.energy;
}

MetricsCollector::MetricsCollector(bool keep_series)
    : keep_series_(keep_series)
{
}

void
MetricsCollector::record(const Cluster &cluster, size_t tick)
{
    const ClusterTick &ct = cluster.lastTick();
    ++ticks_;
    energy_ += ct.total_power;
    peak_power_ = std::max(peak_power_, ct.total_power);
    demanded_ += ct.demanded_useful;
    served_ += ct.served_useful;

    (void)tick;
    constexpr double kSlack = Cluster::kBudgetSlack;

    // Powered-off machines trivially comply, so only live ones count and
    // the metric reflects capping quality, not fleet size. The per-server
    // test ran in evaluateTick's parallel phase.
    sm_violations_.add(ct.live_servers, ct.over_cap_loc);
    for (const auto &enc : cluster.enclosures()) {
        em_violations_.record(cluster.lastEnclosurePower(enc.id()) >
                              cluster.capEnc(enc.id()) + kSlack);
    }
    bool grp_hit = ct.total_power > cluster.capGrp() + kSlack;
    gm_violations_.record(grp_hit);
    if (grp_hit) {
        ++cur_grp_run_;
        longest_grp_run_ = std::max(longest_grp_run_, cur_grp_run_);
    } else {
        cur_grp_run_ = 0;
    }

    if (keep_series_) {
        power_series_.push_back(ct.total_power);
        perf_series_.push_back(
            ct.demanded_useful > 0.0
                ? ct.served_useful / ct.demanded_useful
                : 1.0);
    }
}

MetricsSummary
MetricsCollector::summary() const
{
    MetricsSummary s;
    s.ticks = ticks_;
    s.energy = energy_;
    s.mean_power = ticks_ ? energy_ / static_cast<double>(ticks_) : 0.0;
    s.peak_power = peak_power_;
    s.sm_violation = sm_violations_.rate();
    s.em_violation = em_violations_.rate();
    s.gm_violation = gm_violations_.rate();
    s.perf_loss = demanded_ > 0.0 ? 1.0 - served_ / demanded_ : 0.0;
    return s;
}

void
MetricsCollector::clear()
{
    ticks_ = 0;
    energy_ = 0.0;
    peak_power_ = 0.0;
    demanded_ = 0.0;
    served_ = 0.0;
    sm_violations_.clear();
    em_violations_.clear();
    gm_violations_.clear();
    cur_grp_run_ = 0;
    longest_grp_run_ = 0;
    power_series_.clear();
    perf_series_.clear();
}

} // namespace sim
} // namespace nps
