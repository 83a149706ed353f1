/**
 * @file
 * ClusterFeed: the bridge between a TelemetrySource and the simulation.
 *
 * Installed as the engine's TickSource, it pulls one batch per tick,
 * stages the demand into the cluster's staged-demand slots (the VMs'
 * demandAt() reads them once external demand is enabled), and applies
 * the late/missing-sample policy: a stream that skipped the tick holds
 * its last value for a while, then degrades to a conservative fallback
 * — the same shape as the budget-lease fallback one layer up.
 *
 * It is also the fault::StreamHealth oracle: a server is *silent* at a
 * tick when any VM it hosts delivered no sample for that tick. The
 * controllers' budget links consult the oracle and treat a grant to a
 * silent server exactly like an injected link drop, so losing a
 * server's telemetry degrades the run identically to losing its budget
 * link (tests/stream/ proves the equivalence against a PR-2 fault
 * campaign, DegradeStats and recorder `faults` column included).
 */

#ifndef NPS_STREAM_FEED_H
#define NPS_STREAM_FEED_H

#include <cstdint>
#include <vector>

#include "fault/health.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "stream/source.h"
#include "stream/stream_config.h"

namespace nps {
namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
} // namespace obs

namespace stream {

/**
 * Stages telemetry into the cluster, one tick at a time.
 */
class ClusterFeed : public sim::TickSource, public fault::StreamHealth
{
  public:
    /** Deterministic per-feed tallies (tests assert on these). */
    struct Stats
    {
        uint64_t ticks = 0;           //!< ticks staged
        uint64_t staged_samples = 0;  //!< samples written to the cluster
        uint64_t missing_samples = 0; //!< stream-ticks with no sample
        uint64_t held_samples = 0;    //!< misses bridged by hold-last
        uint64_t fallback_samples = 0; //!< misses degraded to fallback
    };

    /**
     * Switches the cluster to external demand immediately.
     *
     * @param cluster The fed cluster; must outlive the feed.
     * @param source  Where demand comes from; must outlive the feed.
     * @param config  Missing-sample policy knobs.
     */
    ClusterFeed(sim::Cluster &cluster, TelemetrySource &source,
                const StreamConfig &config);

    /// @name sim::TickSource
    /// @{
    bool beginTick(size_t tick) override;
    /// @}

    /// @name fault::StreamHealth
    /// @{
    bool silent(long server_id, size_t tick) const override;
    size_t silentCount(size_t tick) const override;
    /// @}

    /** Deterministic feed tallies. */
    const Stats &stats() const { return stats_; }

    /**
     * Register the nps_stream_* instruments. The counts staged per tick
     * are deterministic; the transport families (lag, late, duplicates,
     * timeouts) depend on socket timing and are excluded from replay
     * equivalence (docs/STREAMING.md).
     */
    void attachObs(obs::MetricsRegistry *metrics);

    /**
     * Serialize feed state (miss streaks, last-held values, silence
     * maps, tallies). The staged demand itself is deliberately NOT
     * saved: after a restore the source re-stages the resume tick, so
     * a checkpoint taken mid-stream resumes only under --serve.
     */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore feed state saved by saveState(). */
    void loadState(ckpt::SectionReader &r);

  private:
    sim::Cluster &cluster_;
    TelemetrySource &source_;
    StreamConfig config_;
    Stats stats_;

    /** Last demand each stream reported (hold-last policy). */
    std::vector<double> last_;
    /** Consecutive ticks each stream has missed. */
    std::vector<uint64_t> miss_;

    // Per-server silence maps for the current and previous staged tick:
    // budget links ask about the tick being evaluated, the recorder
    // samples one tick back.
    std::vector<uint8_t> cur_silent_;
    std::vector<uint8_t> prev_silent_;
    size_t cur_tick_ = 0;
    size_t prev_tick_ = 0;
    size_t cur_count_ = 0;
    size_t prev_count_ = 0;
    bool have_cur_ = false;
    bool have_prev_ = false;

    /** Transport-counter values already mirrored into obs. */
    IngestStats exported_;
    uint64_t exported_frames_ = 0;
    uint64_t exported_resync_ = 0;
    uint64_t exported_bad_crc_ = 0;
    uint64_t exported_bad_type_ = 0;

    obs::Counter *obs_samples_ = nullptr;
    obs::Counter *obs_missing_ = nullptr;
    obs::Counter *obs_held_ = nullptr;
    obs::Counter *obs_fallback_ = nullptr;
    obs::Counter *obs_late_ = nullptr;
    obs::Counter *obs_duplicates_ = nullptr;
    obs::Counter *obs_overflow_ = nullptr;
    obs::Counter *obs_bad_stream_ = nullptr;
    obs::Counter *obs_bad_value_ = nullptr;
    obs::Counter *obs_timeouts_ = nullptr;
    obs::Counter *obs_frames_ = nullptr;
    obs::Counter *obs_resync_ = nullptr;
    obs::Counter *obs_bad_crc_ = nullptr;
    obs::Counter *obs_bad_type_ = nullptr;
    obs::Gauge *obs_silent_ = nullptr;
    obs::Histogram *obs_batch_ = nullptr;
    obs::Histogram *obs_lag_ = nullptr;
    obs::Histogram *rt_pull_ms_ = nullptr;
    obs::Histogram *rt_backlog_ = nullptr;
};

} // namespace stream
} // namespace nps

#endif // NPS_STREAM_FEED_H
