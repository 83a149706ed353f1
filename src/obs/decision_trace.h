/**
 * @file
 * Decision tracing: structured per-tick "why did the controller do
 * that" events, one ring-buffered channel per controller.
 *
 * Channels follow the ControlPlaneLog determinism recipe: each
 * controller registers its channel once at wiring time (single-
 * threaded) and receives a private TraceChannel pointer it alone
 * appends to, so kernel slots can emit from worker threads without
 * locks. Every event carries (tick, seq, text); merged() sorts by
 * (tick, channel name, seq), which makes the merged output bit-
 * identical at any engine thread count.
 *
 * Each channel is a bounded ring: when full, the oldest event is
 * dropped and a per-channel dropped counter advances. Because a channel
 * is only ever written by its owner in tick order, eviction is itself
 * deterministic.
 */

#ifndef NPS_OBS_DECISION_TRACE_H
#define NPS_OBS_DECISION_TRACE_H

#include <cstdarg>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"

namespace nps {
namespace obs {

/** One traced decision. */
struct TraceEvent
{
    std::uint64_t tick = 0;
    std::uint64_t seq = 0; //!< per-channel emission index
    std::string text;
};

/**
 * One controller's private event ring. Obtained from
 * TraceSink::channel(); never constructed directly.
 */
class TraceChannel
{
  public:
    /** Append a printf-style event at @p tick, evicting the oldest
     * event if the ring is full. */
    void emit(std::uint64_t tick, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

    const std::string &name() const { return name_; }
    const std::deque<TraceEvent> &events() const { return events_; }
    /** Events evicted from the ring so far. */
    std::uint64_t dropped() const { return dropped_; }
    /** Events ever emitted (retained + dropped). */
    std::uint64_t emitted() const { return next_seq_; }

  private:
    friend class TraceSink;

    TraceChannel(std::string name, size_t capacity);

    std::string name_;
    size_t capacity_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dropped_ = 0;
    std::deque<TraceEvent> events_;
};

/**
 * Owns every trace channel and produces the deterministic merged view.
 */
class TraceSink
{
  public:
    /** @param capacity per-channel ring capacity (events); > 0. */
    explicit TraceSink(size_t capacity = kDefaultCapacity);

    static constexpr size_t kDefaultCapacity = 65536;

    /**
     * Only channels whose name contains @p substring are recorded;
     * others get a null channel. Must be set before any channel() call.
     * Empty (the default) records everything.
     */
    void setFilter(const std::string &substring);

    /**
     * Register channel @p name and return its private ring, or nullptr
     * when the name is rejected by the filter (callers skip emission on
     * a null channel). Wiring-time only, not thread-safe; registering
     * the same name twice is fatal.
     */
    TraceChannel *channel(const std::string &name);

    /** Registered (unfiltered) channels, in registration order. */
    const std::vector<std::unique_ptr<TraceChannel>> &channels() const
    {
        return channels_;
    }

    size_t numChannels() const { return channels_.size(); }
    /** Retained events across all channels. */
    size_t totalEvents() const;
    /** Evicted events across all channels. */
    std::uint64_t totalDropped() const;

    /** One entry of the merged view. */
    struct Entry
    {
        const TraceChannel *channel = nullptr;
        const TraceEvent *event = nullptr;
    };

    /**
     * All retained events in one deterministic order: (tick, channel
     * name, seq). Independent of registration order and thread count.
     */
    std::vector<Entry> merged() const;

    /** Write the merged view as CSV: tick,channel,seq,event. */
    void writeCsv(std::ostream &out) const;

    /** Serialize every channel's ring, counters included. */
    void saveState(ckpt::SectionWriter &w) const;

    /**
     * Restore rings into already-registered channels matched by name.
     * Fatal when the snapshot's channel set differs from the rebuilt
     * registration (config mismatch).
     */
    void loadState(ckpt::SectionReader &r);

  private:
    size_t capacity_;
    std::string filter_;
    std::vector<std::unique_ptr<TraceChannel>> channels_;
};

} // namespace obs
} // namespace nps

#endif // NPS_OBS_DECISION_TRACE_H
