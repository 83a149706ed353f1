#include "bus/control_link.h"

#include <algorithm>

#include "util/logging.h"

namespace nps {
namespace bus {

double
ViolationTracker::epochViolationRate() const
{
    if (epoch_total_ == 0)
        return 0.0;
    return static_cast<double>(epoch_hits_) /
           static_cast<double>(epoch_total_);
}

void
ViolationTracker::drainEpoch()
{
    epoch_total_ = 0;
    epoch_hits_ = 0;
}

double
ViolationTracker::lifetimeViolationRate() const
{
    if (life_total_ == 0)
        return 0.0;
    return static_cast<double>(life_hits_) /
           static_cast<double>(life_total_);
}

const char *
channelKindName(ChannelKind kind)
{
    switch (kind) {
    case ChannelKind::Budget: return "budget";
    case ChannelKind::Violation: return "violation";
    case ChannelKind::Reference: return "reference";
    case ChannelKind::Telemetry: return "telemetry";
    }
    return "?";
}

ControlLink::ControlLink(ChannelKind kind, std::string name)
    : kind_(kind), name_(std::move(name))
{
}

void
ControlLink::attachLog(ControlPlaneLog *log)
{
    log_ = log ? log->channel(name_, kind_) : nullptr;
}

void
ControlLink::setTransport(Transport *transport, int owner_rank)
{
    transport_ = transport;
    owner_rank_ = transport ? owner_rank : 0;
    wire_id_ = transport ? transport->registerLink(this, owner_rank_) : 0;
}

void
ControlLink::saveState(ckpt::SectionWriter &w) const
{
    w.putU64(seq_);
}

void
ControlLink::loadState(ckpt::SectionReader &r)
{
    seq_ = r.getU64();
}

void
ControlLink::record(size_t tick, uint64_t seq, double value, double aux,
                    bool delivered, bool stale, uint32_t trace)
{
    if (!log_ || (trace == 0 && log_->traced_only))
        return;
    ControlEvent e;
    e.tick = tick;
    e.seq = seq;
    e.kind = kind_;
    e.trace = trace;
    e.value = value;
    e.aux = aux;
    e.delivered = delivered;
    e.stale = stale;
    log_->events.push_back(e);
}

BudgetLink::BudgetLink(fault::Link link, long child, std::string name,
                       Sink sink)
    : ControlLink(ChannelKind::Budget, std::move(name)),
      link_(link),
      child_(child),
      sink_(std::move(sink))
{
    if (!sink_)
        util::fatal("BudgetLink %s: null sink", this->name().c_str());
}

void
BudgetLink::setFaultInjector(const fault::FaultInjector *faults,
                             fault::DegradeStats *stats)
{
    faults_ = faults;
    stats_ = stats;
}

void
BudgetLink::setStreamHealth(const fault::StreamHealth *health,
                            fault::DegradeStats *stats)
{
    health_ = health;
    if (stats)
        stats_ = stats;
}

bool
BudgetLink::send(double watts, size_t tick)
{
    uint64_t seq = nextSeq();
    double deliver = watts;
    bool dropped = false;
    bool stale = false;
    if (health_ && health_->silent(child_, tick)) {
        // The child's telemetry stream is silent: treat the send as
        // lost on the wire, byte-for-byte the injected-drop path below
        // (counted, mirrored undelivered, lease keeps aging).
        dropped = true;
    } else if (faults_) {
        if (faults_->budgetDropped(link_, child_, tick)) {
            // Lost on the wire: the receiver's lease keeps aging.
            dropped = true;
        } else if (faults_->budgetStale(link_, child_, tick) &&
                   has_prev_) {
            // The link delivered the previous epoch's grant.
            stale = true;
            deliver = prev_;
        }
    }
    // The fresh value becomes the next epoch's stale candidate whether
    // or not this send made it through.
    prev_ = watts;
    has_prev_ = true;
    deliver = std::max(deliver, kMinGrant);
    uint32_t trace = traceStamp();
    bool delayed = false;
    uint8_t netem = 0;
    if (!dropped) {
        // A locally dropped send never reaches the transport: over a
        // socket an injected link fault is real wire silence (every
        // replica computes the same drop, so no receiver waits for the
        // frame). The transport may still degrade a computed delivery
        // to a drop — the process hosting this link is down — or, under
        // netem, park it on the virtual wire or drop it for cause.
        WireMsg m = resolveOutcome(wireMsg(
            tick, seq, deliver, watts,
            static_cast<uint8_t>(kWireDelivered |
                                 (stale ? kWireStale : 0))));
        trace = m.trace;
        netem = m.flags &
                (kWireDelayed | kWirePartitioned | kWireExpired);
        if (m.flags & kWireDelayed) {
            // Queued on the virtual wire: the transport owns the copy
            // and hands it back through deliverLate() at a later tick
            // barrier. Not a drop — the grant may still arrive within
            // its lease — but nothing reaches the sink now.
            delayed = true;
            stale = false;
        } else if (!(m.flags & kWireDelivered)) {
            dropped = true;
            stale = false;
        } else {
            stale = (m.flags & kWireStale) != 0;
            deliver = m.value;
        }
    }
    if (stats_) {
        if (delayed)
            ++stats_->netem_delayed;
        if (netem & kWirePartitioned)
            ++stats_->netem_partition_drops;
        if (netem & kWireExpired)
            ++stats_->netem_expired;
    }
    if (dropped) {
        if (stats_)
            ++stats_->dropped_budgets;
    } else if (stale) {
        if (stats_)
            ++stats_->stale_budgets;
    }
    bool sunk = !dropped && !delayed;
    record(tick, seq, sunk ? deliver : 0.0, watts, sunk, stale, trace);
    if (!sunk)
        return false;
    ++delivered_;
    if (!sank_any_ || seqNewer(seq, last_sink_seq_)) {
        last_sink_seq_ = seq;
        sank_any_ = true;
    }
    sink_(BudgetGrant{deliver, tick, seq, trace});
    return true;
}

bool
BudgetLink::deliverLate(const WireMsg &m, size_t now_tick)
{
    bool stale = (m.flags & kWireStale) != 0;
    if (sank_any_ && !seqNewer(m.seq, last_sink_seq_)) {
        // Overtaken on the virtual wire: a fresher grant already
        // reached the sink. The sink must never see budgets move
        // backwards in epoch order, so the late copy is discarded.
        if (stats_)
            ++stats_->netem_reorder_drops;
        record(now_tick, m.seq, 0.0, m.aux, false, stale, m.trace);
        return false;
    }
    double deliver = std::max(m.value, kMinGrant);
    if (stats_) {
        ++stats_->netem_late_deliveries;
        if (stale)
            ++stats_->stale_budgets;
    }
    record(now_tick, m.seq, deliver, m.aux, true, stale, m.trace);
    ++delivered_;
    last_sink_seq_ = m.seq;
    sank_any_ = true;
    // The grant keeps its original send tick: a receiver arming a lease
    // from it sees the lease aged by the wire latency, exactly as a
    // real delayed management message would.
    sink_(BudgetGrant{deliver, static_cast<size_t>(m.tick), m.seq,
                      m.trace});
    return true;
}

void
BudgetLink::reset()
{
    prev_ = 0.0;
    has_prev_ = false;
}

void
BudgetLink::saveState(ckpt::SectionWriter &w) const
{
    ControlLink::saveState(w);
    w.putDouble(prev_);
    w.putBool(has_prev_);
    w.putU64(delivered_);
    w.putU64(last_sink_seq_);
    w.putBool(sank_any_);
}

void
BudgetLink::loadState(ckpt::SectionReader &r)
{
    ControlLink::loadState(r);
    prev_ = r.getDouble();
    has_prev_ = r.getBool();
    delivered_ = r.getU64();
    last_sink_seq_ = r.getU64();
    sank_any_ = r.getBool();
}

ViolationChannel::ViolationChannel(std::string name,
                                   ViolationSource *source)
    : ControlLink(ChannelKind::Violation, std::move(name)),
      source_(source)
{
    if (!source_)
        util::fatal("ViolationChannel %s: null source",
                    this->name().c_str());
}

ViolationReport
ViolationChannel::poll(size_t tick)
{
    ViolationReport r;
    r.epoch_rate = source_->epochViolationRate();
    r.lifetime_rate = source_->lifetimeViolationRate();
    r.tick = tick;
    r.seq = nextSeq();
    // Upward feedback answers the last budget epoch the polled source
    // received: stamp the report with that epoch's cascade trace id.
    setTraceStamp(source_->cascadeStamp());
    WireMsg m = resolveOutcome(wireMsg(tick, r.seq, r.epoch_rate,
                                       r.lifetime_rate, kWireDelivered));
    bool delivered = (m.flags & kWireDelivered) != 0;
    // A dead source reports no violations: zero rates, mirrored as an
    // undelivered poll, until the hosting process rejoins.
    r.epoch_rate = delivered ? m.value : 0.0;
    r.lifetime_rate = delivered ? m.aux : 0.0;
    record(tick, r.seq, r.epoch_rate, r.lifetime_rate, delivered, false,
           m.trace);
    return r;
}

void
ViolationChannel::drain()
{
    source_->drainEpoch();
}

ReferenceLink::ReferenceLink(std::string name, Sink sink)
    : ControlLink(ChannelKind::Reference, std::move(name)),
      sink_(std::move(sink))
{
    if (!sink_)
        util::fatal("ReferenceLink %s: null sink", this->name().c_str());
}

void
ReferenceLink::send(double r_ref, size_t tick)
{
    uint64_t seq = nextSeq();
    WireMsg m = resolveOutcome(wireMsg(tick, seq, r_ref, 0.0,
                                       kWireDelivered));
    bool delivered = (m.flags & kWireDelivered) != 0;
    record(tick, seq, m.value, 0.0, delivered, false, m.trace);
    if (delivered)
        sink_(ReferenceUpdate{m.value, tick, seq});
}

TelemetryLink::TelemetryLink(std::string name)
    : ControlLink(ChannelKind::Telemetry, std::move(name))
{
}

void
TelemetryLink::emit(double value, double aux, size_t tick)
{
    uint64_t seq = nextSeq();
    WireMsg m = resolveOutcome(wireMsg(tick, seq, value, aux,
                                       kWireDelivered));
    record(tick, seq, m.value, m.aux, (m.flags & kWireDelivered) != 0,
           false, m.trace);
}

} // namespace bus
} // namespace nps
