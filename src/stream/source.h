/**
 * @file
 * TelemetrySource: where per-tick VM demand comes from — the seam that
 * makes the engine indifferent to offline/online operation.
 *
 * The batch simulator reads demand from recorded traces; the online
 * daemon reads it from a socket. Both are TelemetrySources: the engine's
 * ClusterFeed pulls one TickBatch per tick and stages it into the
 * cluster, and everything downstream of the staging slot (controllers,
 * recorder, metrics) is provably unable to tell the difference — the
 * replay-equivalence suite (tests/stream/) byte-diffs the two.
 */

#ifndef NPS_STREAM_SOURCE_H
#define NPS_STREAM_SOURCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/frame.h"
#include "trace/trace.h"

namespace nps {
namespace stream {

/** Transport-anomaly tallies kept by an online source (all zero for an
 * offline one). lag_samples accumulates one entry per decoded sample —
 * how many ticks ahead of the pull cursor it arrived — and is drained
 * by the consumer (the feed feeds them to a histogram). */
struct IngestStats
{
    uint64_t samples = 0;    //!< samples accepted into a tick batch
    uint64_t late = 0;       //!< samples for an already-delivered tick
    uint64_t duplicates = 0; //!< repeated (tick, stream) pairs
    uint64_t overflow = 0;   //!< samples beyond the pending window
    uint64_t bad_stream = 0; //!< samples naming a stream that doesn't exist
    uint64_t bad_value = 0;  //!< samples whose demand is < 0 or not finite
    uint64_t timeouts = 0;   //!< ticks delivered on timeout, not barrier
    std::vector<uint32_t> lag_samples; //!< per-sample arrival lead (ticks)
};

/**
 * One tick's worth of demand across every stream.
 */
struct TickBatch
{
    size_t tick = 0;
    /** Per-stream presence flags, indexed by VM id. */
    std::vector<uint8_t> present;
    /** Per-stream demand, valid where present (index == VM id). */
    std::vector<double> demand;
    /** Number of set presence flags. */
    size_t samples = 0;

    void reset(size_t streams, size_t tick_no)
    {
        tick = tick_no;
        present.assign(streams, 0);
        demand.assign(streams, 0.0);
        samples = 0;
    }
};

/**
 * A pull-based per-tick demand provider.
 */
class TelemetrySource
{
  public:
    virtual ~TelemetrySource() = default;

    /** Number of telemetry streams (must equal the cluster's VM count). */
    virtual size_t streams() const = 0;

    /**
     * Produce the batch for @p tick. Ticks are pulled consecutively,
     * each exactly once. May block (an online source waits for the
     * tick's barrier frame).
     *
     * @return false when the feed has ended — the engine stops before
     *         simulating @p tick.
     */
    virtual bool pull(size_t tick, TickBatch &batch) = 0;

    /** Transport tallies, or nullptr for sources that cannot lose data. */
    virtual IngestStats *ingest() { return nullptr; }

    /** Frame-codec tallies, or nullptr for unframed sources. */
    virtual const DecodeStats *codec() const { return nullptr; }

    /** Ticks buffered ahead of the pull cursor (backpressure depth);
     * 0 for sources with no pending window. */
    virtual size_t backlog() const { return 0; }
};

/**
 * Batch operation expressed as a source: replays recorded traces, every
 * stream present every tick, exactly the values the classic trace-driven
 * path serves. Exists so equivalence tests can run the *staging* code
 * path against ground truth.
 */
class OfflineTraceSource : public TelemetrySource
{
  public:
    /**
     * @param traces  One trace per stream; must outlive the source.
     * @param horizon Ticks to serve before reporting end-of-feed
     *                (0 = never ends; traces wrap like the batch path).
     */
    OfflineTraceSource(const std::vector<trace::UtilizationTrace> &traces,
                       size_t horizon = 0);

    size_t streams() const override { return traces_.size(); }
    bool pull(size_t tick, TickBatch &batch) override;

  private:
    const std::vector<trace::UtilizationTrace> &traces_;
    size_t horizon_;
};

} // namespace stream
} // namespace nps

#endif // NPS_STREAM_SOURCE_H
