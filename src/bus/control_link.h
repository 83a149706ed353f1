/**
 * @file
 * ControlLink: the per-link abstraction every coordination channel of
 * the hierarchy speaks through.
 *
 * A link binds one (sender, receiver) pair to one typed channel and
 * gives the whole stack a single uniform hook point:
 *
 *   - sequence numbers: every message on a link is numbered, so logs
 *     and tests can reason about ordering and loss;
 *   - fault injection: drop/stale faults on budget links are applied
 *     here, once, instead of being re-implemented per controller;
 *   - observability: delivered (and dropped) messages, with the
 *     cascade trace id they carry, can be recorded into an optional
 *     ControlPlaneLog.
 *
 * The fault semantics reproduce the per-controller plumbing they
 * replace exactly: a dropped grant is counted and not delivered (the
 * receiver's lease keeps aging); a stale grant delivers the previous
 * epoch's value when one exists (and is counted), otherwise the fresh
 * value passes through uncounted; delivered budgets are clamped to a
 * tiny positive floor. FaultInjector queries are pure functions of
 * (seed, kind, target, tick), so routing them through the link cannot
 * perturb any other random stream.
 */

#ifndef NPS_BUS_CONTROL_LINK_H
#define NPS_BUS_CONTROL_LINK_H

#include <functional>
#include <string>
#include <vector>

#include "bus/control_log.h"
#include "bus/messages.h"
#include "bus/transport.h"
#include "bus/violation.h"
#include "fault/health.h"
#include "fault/injector.h"

namespace nps {
namespace bus {

/**
 * Common identity, sequencing and mirroring of every channel.
 */
class ControlLink
{
  public:
    ControlLink(ChannelKind kind, std::string name);
    virtual ~ControlLink() = default;

    /** The link's unique name, e.g. "EM/2->SM/9". */
    const std::string &name() const { return name_; }

    /** What the link carries. */
    ChannelKind kind() const { return kind_; }

    /** Messages sent so far (dropped ones included). */
    uint64_t sent() const { return seq_; }

    /**
     * Mirror this link's traffic into @p log (null detaches). Must be
     * called at wiring time, before the engine runs. A traced-only log
     * keeps just the messages carrying a non-zero trace id.
     */
    void attachLog(ControlPlaneLog *log);

    /**
     * Stamp every subsequent message with cascade trace id @p trace
     * (0 = untraced). Senders set this right before send/poll; the
     * stamp is derived from serialized controller state, so it needs no
     * checkpointing of its own.
     */
    void setTraceStamp(uint32_t trace) { trace_stamp_ = trace; }

    /** The current cascade trace stamp. */
    uint32_t traceStamp() const { return trace_stamp_; }

    /**
     * Route this link's messages through @p transport (null detaches,
     * restoring the inline fast path — the two are bit-identical for
     * an in-process transport). @p owner_rank is the process rank
     * hosting this link's sender (docs/DISTRIBUTED.md); a
     * single-process run passes 0. Must be called at wiring time,
     * before the engine runs.
     */
    void setTransport(Transport *transport, int owner_rank);

    /** The attached transport, or nullptr. */
    Transport *transport() const { return transport_; }

    /** The rank owning this link under the attached transport. */
    int ownerRank() const { return owner_rank_; }

    /** The wire id assigned at registration (transport attached only). */
    uint32_t wireId() const { return wire_id_; }

    /** Serialize the sequence counter (checkpointing). */
    virtual void saveState(ckpt::SectionWriter &w) const;

    /** Restore the sequence counter (checkpoint restore). */
    virtual void loadState(ckpt::SectionReader &r);

  protected:
    /** Claim the next sequence number (1-based). */
    uint64_t nextSeq() { return ++seq_; }

    /**
     * Append one resolved message to the attached log, if any (a
     * traced-only log skips it when @p trace is 0).
     */
    void record(size_t tick, uint64_t seq, double value, double aux,
                bool delivered, bool stale, uint32_t trace);

    /**
     * Resolve @p local through the attached transport, or return it
     * unchanged when none is attached. Subclasses call this between
     * computing a message's local outcome and acting on it.
     */
    WireMsg resolveOutcome(const WireMsg &local)
    {
        if (!transport_)
            return local;
        return transport_->resolve(*this, local);
    }

    /** Build a WireMsg stamped with this link's wire id. */
    WireMsg wireMsg(size_t tick, uint64_t seq, double value, double aux,
                    uint8_t flags) const
    {
        WireMsg m;
        m.link = wire_id_;
        m.tick = tick;
        m.seq = seq;
        m.value = value;
        m.aux = aux;
        m.trace = trace_stamp_;
        m.flags = flags;
        return m;
    }

  private:
    ChannelKind kind_;
    std::string name_;
    uint64_t seq_ = 0;
    ControlPlaneLog::LinkLog *log_ = nullptr;
    uint32_t trace_stamp_ = 0;
    Transport *transport_ = nullptr;
    int owner_rank_ = 0;
    uint32_t wire_id_ = 0;
};

/**
 * A downstream budget channel (GM→GM, GM→EM, GM→SM, EM→SM): the only
 * channel the fault layer's drop/stale modes target.
 */
class BudgetLink : public ControlLink
{
  public:
    /** Delivery floor: grants are clamped to at least this (watts). */
    static constexpr double kMinGrant = 1e-6;

    using Sink = std::function<void(const BudgetGrant &)>;

    /**
     * @param link  Which fault-model link class this instance is.
     * @param child Receiver instance id (the fault target id).
     * @param name  Unique link name for logs and diagnostics.
     * @param sink  Delivery callback into the receiver.
     */
    BudgetLink(fault::Link link, long child, std::string name, Sink sink);

    /**
     * Attach the fault oracle and the sender's degradation counters
     * (either may be null; both null = fault-free).
     */
    void setFaultInjector(const fault::FaultInjector *faults,
                          fault::DegradeStats *stats);

    /**
     * Attach a stream-liveness oracle (online engine): a send to a
     * child whose telemetry stream is silent at the send tick is
     * treated exactly like an injected drop — counted in @p stats,
     * mirrored as undelivered, the receiver's lease keeps aging. Only
     * meaningful on links whose child id is a server id (EM→SM, GM→SM);
     * null detaches.
     */
    void setStreamHealth(const fault::StreamHealth *health,
                         fault::DegradeStats *stats);

    /**
     * Attach the sender's degradation counters without touching the
     * fault or liveness oracles. A distributed run needs drops counted
     * even when no fault campaign is scheduled: a grant addressed to a
     * killed peer process resolves as undelivered and must age the
     * receiver's lease ladder visibly (docs/DISTRIBUTED.md). Null is
     * ignored (an earlier attachment stays).
     */
    void attachDegradeStats(fault::DegradeStats *stats)
    {
        if (stats)
            stats_ = stats;
    }

    /**
     * Send a grant of @p watts at @p tick. Applies any active drop or
     * stale fault, mirrors the outcome, and invokes the sink on
     * delivery. @return false when the send was dropped.
     */
    bool send(double watts, size_t tick);

    /**
     * Deliver a netem-delayed grant at the tick barrier of @p now_tick
     * (docs/NETWORK_FAULTS.md): @p m is the resolved outcome a
     * transport queued instead of delivering, with its original send
     * tick/seq/value intact. A late grant older than one the sink has
     * already seen is discarded (the reorder window, compared with
     * seqNewer so a wrapped sequence stays fresh); otherwise it is
     * mirrored, counted and sunk like an on-time delivery.
     * @return false when the reorder window discarded it.
     */
    bool deliverLate(const WireMsg &m, size_t now_tick);

    /**
     * Forget the previous-epoch grant (sender restarted cold): the next
     * stale fault has nothing old to replay and delivers fresh.
     */
    void reset();

    /** Messages actually delivered (sent() minus drops). */
    uint64_t delivered() const { return delivered_; }

    /** Serialize seq + stale-replay slot + delivery + reorder window. */
    void saveState(ckpt::SectionWriter &w) const override;

    /** Restore seq + stale-replay slot + delivery + reorder window. */
    void loadState(ckpt::SectionReader &r) override;

    /** The fault-model link class. */
    fault::Link link() const { return link_; }

    /** The receiver's fault target id. */
    long child() const { return child_; }

  private:
    fault::Link link_;
    long child_;
    Sink sink_;
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats *stats_ = nullptr;
    const fault::StreamHealth *health_ = nullptr;
    double prev_ = 0.0;      //!< previous epoch's grant (stale replay)
    bool has_prev_ = false;
    uint64_t delivered_ = 0;
    uint64_t last_sink_seq_ = 0; //!< newest seq the sink has seen
    bool sank_any_ = false;      //!< arms the reorder window
};

/**
 * An upstream violation-feedback channel: wraps one ViolationSource so
 * the consolidator's reads become typed, numbered messages.
 */
class ViolationChannel : public ControlLink
{
  public:
    ViolationChannel(std::string name, ViolationSource *source);

    /** Read the source's current rates as a report (and mirror it). */
    ViolationReport poll(size_t tick);

    /** Reset the source's epoch window (after consuming a report). */
    void drain();

    /** The wrapped source. */
    ViolationSource *source() const { return source_; }

  private:
    ViolationSource *source_;
};

/**
 * A nested-loop reference channel (SM → EC r_ref actuation).
 */
class ReferenceLink : public ControlLink
{
  public:
    using Sink = std::function<void(const ReferenceUpdate &)>;

    ReferenceLink(std::string name, Sink sink);

    /** Send a reference update of @p r_ref at @p tick. */
    void send(double r_ref, size_t tick);

  private:
    Sink sink_;
};

/**
 * A one-way telemetry channel: no receiver, mirror-only. Used by the
 * electrical cappers and memory managers to publish actuation events.
 */
class TelemetryLink : public ControlLink
{
  public:
    explicit TelemetryLink(std::string name);

    /** Publish one sample. */
    void emit(double value, double aux, size_t tick);
};

} // namespace bus
} // namespace nps

#endif // NPS_BUS_CONTROL_LINK_H
