#include "stream/feed.h"

#include <chrono>
#include <cmath>

#include "ckpt/snapshot.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace nps {
namespace stream {

ClusterFeed::ClusterFeed(sim::Cluster &cluster, TelemetrySource &source,
                         const StreamConfig &config)
    : cluster_(cluster), source_(source), config_(config)
{
    if (source_.streams() != cluster_.numVms())
        util::fatal("stream: source has %zu streams, cluster has %zu "
                    "VMs",
                    source_.streams(), cluster_.numVms());
    // The fallback is staged as demand, which the plant requires to be
    // finite and non-negative.
    if (!std::isfinite(config_.fallback_util) || config_.fallback_util < 0.0)
        util::fatal("stream: fallback_util %g is not a finite, "
                    "non-negative demand",
                    config_.fallback_util);
    cluster_.enableExternalDemand();
    last_.assign(cluster_.numVms(), config_.fallback_util);
    miss_.assign(cluster_.numVms(), 0);
    cur_silent_.assign(cluster_.numServers(), 0);
    prev_silent_.assign(cluster_.numServers(), 0);
}

bool
ClusterFeed::beginTick(size_t tick)
{
    TickBatch batch;
    auto pull_start = std::chrono::steady_clock::now();
    if (!source_.pull(tick, batch))
        return false;
    if (rt_pull_ms_) {
        rt_pull_ms_->observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - pull_start)
                .count());
        rt_backlog_->observe(static_cast<double>(source_.backlog()));
    }

    std::vector<double> &staged = cluster_.stagedDemand();
    // Roll the silence window: the batch we are about to stage becomes
    // the current tick, the previous one slides into the recorder's
    // look-back slot.
    prev_silent_.swap(cur_silent_);
    prev_tick_ = cur_tick_;
    prev_count_ = cur_count_;
    have_prev_ = have_cur_;
    cur_tick_ = tick;
    cur_count_ = 0;
    cur_silent_.assign(cluster_.numServers(), 0);
    have_cur_ = true;

    for (size_t v = 0; v < batch.present.size(); ++v) {
        if (batch.present[v]) {
            last_[v] = batch.demand[v];
            miss_[v] = 0;
            staged[v] = batch.demand[v];
            ++stats_.staged_samples;
            continue;
        }
        ++miss_[v];
        ++stats_.missing_samples;
        bool hold = config_.hold_last &&
                    (config_.hold_ticks == 0 ||
                     miss_[v] <= config_.hold_ticks);
        if (hold) {
            staged[v] = last_[v];
            ++stats_.held_samples;
        } else {
            staged[v] = config_.fallback_util;
            ++stats_.fallback_samples;
        }
        sim::ServerId sid =
            cluster_.serverOf(static_cast<sim::VmId>(v));
        if (!cur_silent_[sid]) {
            cur_silent_[sid] = 1;
            ++cur_count_;
        }
    }
    ++stats_.ticks;

    if (obs_samples_) {
        obs_samples_->add(static_cast<double>(batch.samples));
        obs_missing_->add(static_cast<double>(batch.present.size() -
                                              batch.samples));
        obs_silent_->set(static_cast<double>(cur_count_));
        obs_batch_->observe(static_cast<double>(batch.samples));
        if (IngestStats *in = source_.ingest()) {
            obs_late_->add(static_cast<double>(in->late -
                                               exported_.late));
            obs_duplicates_->add(static_cast<double>(
                in->duplicates - exported_.duplicates));
            obs_overflow_->add(static_cast<double>(in->overflow -
                                                   exported_.overflow));
            obs_bad_stream_->add(static_cast<double>(
                in->bad_stream - exported_.bad_stream));
            obs_bad_value_->add(static_cast<double>(
                in->bad_value - exported_.bad_value));
            obs_timeouts_->add(static_cast<double>(in->timeouts -
                                                   exported_.timeouts));
            exported_.late = in->late;
            exported_.duplicates = in->duplicates;
            exported_.overflow = in->overflow;
            exported_.bad_stream = in->bad_stream;
            exported_.bad_value = in->bad_value;
            exported_.timeouts = in->timeouts;
            for (uint32_t lag : in->lag_samples)
                obs_lag_->observe(static_cast<double>(lag));
            in->lag_samples.clear();
        }
        if (const DecodeStats *dc = source_.codec()) {
            obs_frames_->add(static_cast<double>(dc->frames -
                                                 exported_frames_));
            obs_resync_->add(static_cast<double>(dc->resync_bytes -
                                                 exported_resync_));
            obs_bad_crc_->add(static_cast<double>(dc->bad_crc -
                                                  exported_bad_crc_));
            obs_bad_type_->add(static_cast<double>(dc->bad_type -
                                                   exported_bad_type_));
            exported_frames_ = dc->frames;
            exported_resync_ = dc->resync_bytes;
            exported_bad_crc_ = dc->bad_crc;
            exported_bad_type_ = dc->bad_type;
        }
    } else if (IngestStats *in = source_.ingest()) {
        // Unmetered runs still must not accumulate lag samples forever.
        in->lag_samples.clear();
    }

    // Also track held/fallback in the feed policy counters above; keep
    // the obs mirrors in lockstep.
    if (obs_held_) {
        obs_held_->add(static_cast<double>(stats_.held_samples) -
                       obs_held_->value());
        obs_fallback_->add(
            static_cast<double>(stats_.fallback_samples) -
            obs_fallback_->value());
    }
    return true;
}

bool
ClusterFeed::silent(long server_id, size_t tick) const
{
    if (server_id < 0 ||
        static_cast<size_t>(server_id) >= cur_silent_.size())
        return false;
    if (have_cur_ && tick == cur_tick_)
        return cur_silent_[static_cast<size_t>(server_id)] != 0;
    if (have_prev_ && tick == prev_tick_)
        return prev_silent_[static_cast<size_t>(server_id)] != 0;
    return false;
}

size_t
ClusterFeed::silentCount(size_t tick) const
{
    if (have_cur_ && tick == cur_tick_)
        return cur_count_;
    if (have_prev_ && tick == prev_tick_)
        return prev_count_;
    return 0;
}

void
ClusterFeed::attachObs(obs::MetricsRegistry *metrics)
{
    if (!metrics)
        return;
    const std::string label = "feed";
    obs_samples_ = metrics->counter(
        "nps_stream_samples_total", label,
        "Telemetry samples staged into the cluster");
    obs_missing_ = metrics->counter(
        "nps_stream_missing_samples_total", label,
        "Stream-ticks that arrived with no sample");
    obs_held_ = metrics->counter(
        "nps_stream_held_samples_total", label,
        "Misses bridged by the hold-last policy");
    obs_fallback_ = metrics->counter(
        "nps_stream_fallback_samples_total", label,
        "Misses degraded to the fallback utilization");
    obs_late_ = metrics->counter(
        "nps_stream_late_samples_total", label,
        "Samples for an already-delivered tick (dropped)");
    obs_duplicates_ = metrics->counter(
        "nps_stream_duplicate_samples_total", label,
        "Repeated (tick, stream) samples (last write wins)");
    obs_overflow_ = metrics->counter(
        "nps_stream_overflow_samples_total", label,
        "Samples beyond the pending window (dropped)");
    obs_bad_stream_ = metrics->counter(
        "nps_stream_bad_stream_samples_total", label,
        "Samples naming a stream that does not exist (dropped)");
    obs_bad_value_ = metrics->counter(
        "nps_stream_bad_value_samples_total", label,
        "Samples whose demand is negative or not finite (dropped)");
    obs_timeouts_ = metrics->counter(
        "nps_stream_tick_timeouts_total", label,
        "Ticks delivered on timeout instead of a barrier frame");
    obs_frames_ = metrics->counter(
        "nps_stream_frames_total", label, "Frames decoded");
    obs_resync_ = metrics->counter(
        "nps_stream_resync_bytes_total", label,
        "Bytes skipped resynchronizing after garbage");
    obs_bad_crc_ = metrics->counter(
        "nps_stream_bad_crc_frames_total", label,
        "Frames rejected on checksum");
    obs_bad_type_ = metrics->counter(
        "nps_stream_bad_type_frames_total", label,
        "Frames rejected on an unknown type byte");
    obs_silent_ = metrics->gauge(
        "nps_stream_silent_servers", label,
        "Servers with at least one silent stream, last staged tick");
    obs_batch_ = metrics->histogram(
        "nps_stream_batch_samples", label,
        "Samples staged per tick",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
         1024.0, 4096.0, 16384.0, 65536.0});
    obs_lag_ = metrics->histogram(
        "nps_stream_ingest_lag_ticks", label,
        "How many ticks ahead of the pull cursor samples arrived",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    // Runtime (wall-clock) instruments: nondeterministic by nature, so
    // they live in nps_rt_ families, which every determinism check
    // (digests, checkpoints, diffs) excludes.
    rt_pull_ms_ = metrics->histogram(
        "nps_rt_stream_pull_wall_ms", label,
        "Wall-clock time blocked in the telemetry pull per tick — "
        "socket wait plus frame decode (ms)",
        obs::MetricsRegistry::runtimeMsBounds());
    rt_backlog_ = metrics->histogram(
        "nps_rt_stream_backlog_ticks", label,
        "Ticks buffered ahead of the pull cursor after each pull "
        "(backpressure depth)",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
}

void
ClusterFeed::saveState(ckpt::SectionWriter &w) const
{
    w.putDoubleVec(last_);
    w.putU64(miss_.size());
    for (uint64_t m : miss_)
        w.putU64(m);
    auto putBitmap = [&w](const std::vector<uint8_t> &v) {
        w.putU64(v.size());
        for (uint8_t b : v)
            w.putBool(b != 0);
    };
    putBitmap(cur_silent_);
    putBitmap(prev_silent_);
    w.putU64(cur_tick_);
    w.putU64(prev_tick_);
    w.putU64(cur_count_);
    w.putU64(prev_count_);
    w.putBool(have_cur_);
    w.putBool(have_prev_);
    w.putU64(stats_.ticks);
    w.putU64(stats_.staged_samples);
    w.putU64(stats_.missing_samples);
    w.putU64(stats_.held_samples);
    w.putU64(stats_.fallback_samples);
}

void
ClusterFeed::loadState(ckpt::SectionReader &r)
{
    last_ = r.getDoubleVec();
    auto misses = static_cast<size_t>(r.getU64());
    if (last_.size() != cluster_.numVms() ||
        misses != cluster_.numVms())
        util::fatal("stream restore: snapshot covers %zu streams, the "
                    "cluster has %zu VMs",
                    last_.size(), cluster_.numVms());
    miss_.resize(misses);
    for (uint64_t &m : miss_)
        m = r.getU64();
    auto getBitmap = [&r](std::vector<uint8_t> &v) {
        v.resize(static_cast<size_t>(r.getU64()));
        for (auto &b : v)
            b = r.getBool() ? 1 : 0;
    };
    getBitmap(cur_silent_);
    getBitmap(prev_silent_);
    if (cur_silent_.size() != cluster_.numServers())
        util::fatal("stream restore: snapshot covers %zu servers, the "
                    "cluster has %zu",
                    cur_silent_.size(), cluster_.numServers());
    cur_tick_ = static_cast<size_t>(r.getU64());
    prev_tick_ = static_cast<size_t>(r.getU64());
    cur_count_ = static_cast<size_t>(r.getU64());
    prev_count_ = static_cast<size_t>(r.getU64());
    have_cur_ = r.getBool();
    have_prev_ = r.getBool();
    stats_.ticks = r.getU64();
    stats_.staged_samples = r.getU64();
    stats_.missing_samples = r.getU64();
    stats_.held_samples = r.getU64();
    stats_.fallback_samples = r.getU64();
}

} // namespace stream
} // namespace nps
