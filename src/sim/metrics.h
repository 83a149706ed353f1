/**
 * @file
 * Metric collection: the paper's evaluation metrics (Section 4.2) —
 * aggregate power (energy), performance loss, and power-budget violations
 * at the server (SM), enclosure (EM), and group (GM) levels.
 */

#ifndef NPS_SIM_METRICS_H
#define NPS_SIM_METRICS_H

#include <vector>

#include "fault/injector.h"
#include "sim/cluster.h"
#include "util/stats.h"

namespace nps {
namespace sim {

/** Final aggregated metrics of one simulation run. */
struct MetricsSummary
{
    size_t ticks = 0;            //!< simulated ticks
    double energy = 0.0;         //!< total watt-ticks consumed
    double mean_power = 0.0;     //!< average group power (watts)
    double peak_power = 0.0;     //!< highest group power in any tick
    double sm_violation = 0.0;   //!< fraction of server-ticks over CAP_LOC
    double em_violation = 0.0;   //!< fraction of enclosure-ticks over CAP_ENC
    double gm_violation = 0.0;   //!< fraction of ticks over CAP_GRP
    double perf_loss = 0.0;      //!< 1 - served / demanded useful work
    /**
     * Aggregate graceful-degradation counters across all controllers
     * (all zero on a fault-free run; see src/fault/).
     */
    fault::DegradeStats degrade;
};

/**
 * Fractional power savings of @p scenario relative to @p baseline
 * (positive when the scenario consumed less energy).
 */
double powerSavings(const MetricsSummary &baseline,
                    const MetricsSummary &scenario);

/**
 * Streaming collector fed once per simulated tick.
 */
class MetricsCollector
{
  public:
    /**
     * @param keep_series When true, retains the per-tick group power and
     * performance series for plotting (memory grows with run length).
     */
    explicit MetricsCollector(bool keep_series = false);

    /**
     * Record tick @p tick of @p cluster, which must have just been
     * evaluated: everything is read from cluster.lastTick(), including
     * the SM-level violation counts evaluateTick gathered per shard.
     */
    void record(const Cluster &cluster, size_t tick);

    /** @return the aggregate summary so far. */
    MetricsSummary summary() const;

    /** Per-tick group power (empty unless keep_series). */
    const std::vector<double> &powerSeries() const { return power_series_; }

    /** Per-tick served/demanded ratio (empty unless keep_series). */
    const std::vector<double> &perfSeries() const { return perf_series_; }

    /** Reset all accumulated state. */
    void clear();

    /**
     * Longest run of consecutive ticks (so far) in which the group budget
     * was violated — the "bounded transient violation" property thermal
     * capping relies on.
     */
    size_t longestGroupViolationRun() const { return longest_grp_run_; }

    /** Serialize all accumulators and retained series (checkpointing). */
    void
    saveState(ckpt::SectionWriter &w) const
    {
        w.putU64(ticks_);
        w.putDouble(energy_);
        w.putDouble(peak_power_);
        w.putDouble(demanded_);
        w.putDouble(served_);
        w.putU64(sm_violations_.total());
        w.putU64(sm_violations_.hits());
        w.putU64(em_violations_.total());
        w.putU64(em_violations_.hits());
        w.putU64(gm_violations_.total());
        w.putU64(gm_violations_.hits());
        w.putU64(cur_grp_run_);
        w.putU64(longest_grp_run_);
        w.putDoubleVec(power_series_);
        w.putDoubleVec(perf_series_);
    }

    /** Restore all accumulators and series (checkpoint restore). */
    void
    loadState(ckpt::SectionReader &r)
    {
        ticks_ = static_cast<size_t>(r.getU64());
        energy_ = r.getDouble();
        peak_power_ = r.getDouble();
        demanded_ = r.getDouble();
        served_ = r.getDouble();
        auto restoreRate = [&r](util::RateCounter &c) {
            auto total = static_cast<size_t>(r.getU64());
            auto hits = static_cast<size_t>(r.getU64());
            c.restore(total, hits);
        };
        restoreRate(sm_violations_);
        restoreRate(em_violations_);
        restoreRate(gm_violations_);
        cur_grp_run_ = static_cast<size_t>(r.getU64());
        longest_grp_run_ = static_cast<size_t>(r.getU64());
        power_series_ = r.getDoubleVec();
        perf_series_ = r.getDoubleVec();
    }

  private:
    bool keep_series_;
    size_t ticks_ = 0;
    double energy_ = 0.0;
    double peak_power_ = 0.0;
    double demanded_ = 0.0;
    double served_ = 0.0;
    util::RateCounter sm_violations_;
    util::RateCounter em_violations_;
    util::RateCounter gm_violations_;
    size_t cur_grp_run_ = 0;
    size_t longest_grp_run_ = 0;
    std::vector<double> power_series_;
    std::vector<double> perf_series_;
};

} // namespace sim
} // namespace nps

#endif // NPS_SIM_METRICS_H
