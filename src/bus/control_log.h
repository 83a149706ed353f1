/**
 * @file
 * ControlPlaneLog: the one per-link record of control-bus traffic, for
 * observability. Two CSV views derive from it (docs/OBSERVABILITY.md):
 *
 *   - the control log (writeCsv): every mirrored message;
 *   - the cascade trace (writeCascadeCsv): only the messages stamped
 *     with a budget-cascade trace id, with per-hop causal latency.
 *
 * Each ControlLink that is attached to the log owns a private per-link
 * event buffer, registered once at wiring time (single-threaded). At
 * runtime a link appends only to its own buffer, so kernel slots (SMs,
 * CAPs, MMs) can mirror from worker threads without contention or
 * nondeterminism; merged() produces one deterministic, thread-count-
 * independent ordering afterwards by sorting on (tick, link name, seq).
 * The trace id rides across process boundaries inside the NPSF ctrl
 * frame, so the merged views are also identical between the
 * single-process oracle and a distributed run.
 *
 * A traced-only log (a run that wants the cascade but not the full
 * control log) drops unstamped events at record time, so it stores no
 * more than the cascade view needs.
 *
 * Disabled (detached) links skip mirroring entirely, so the log is
 * strictly pay-for-use and the default build is bit-identical to one
 * without it.
 */

#ifndef NPS_BUS_CONTROL_LOG_H
#define NPS_BUS_CONTROL_LOG_H

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bus/messages.h"
#include "ckpt/snapshot.h"
#include "util/chunked_vector.h"

namespace nps {
namespace bus {

/** Per-link event buffer: chunk-pooled so high-rate mirroring appends
 * without vector doubling/moves, and element addresses stay stable for
 * the merged view (util/chunked_vector.h). */
using EventBuffer = util::ChunkedVector<ControlEvent, 256>;

/**
 * The event log of the whole control plane.
 */
class ControlPlaneLog
{
  public:
    /** One link's registration: its name and its private buffer. */
    struct LinkLog
    {
        std::string name;
        ChannelKind kind = ChannelKind::Budget;
        bool traced_only = false; //!< keep only trace-stamped events
        EventBuffer events;
    };

    /** One entry of a merged view. */
    struct Entry
    {
        const LinkLog *link = nullptr;
        const ControlEvent *event = nullptr;
    };

    /** Which events a merged view holds. */
    enum class View
    {
        All,    //!< every recorded event (the control log)
        Traced, //!< only trace-stamped events (the cascade trace)
    };

    /** @p traced_only: record only trace-stamped events. */
    explicit ControlPlaneLog(bool traced_only = false)
        : traced_only_(traced_only)
    {
    }

    /** Whether this log keeps only trace-stamped events. */
    bool tracedOnly() const { return traced_only_; }

    /**
     * Register link @p name and return its private log. Must be called
     * at wiring time, before the engine runs — registration is not
     * thread-safe (appending to the returned buffer from the owning
     * sender is). Registering the same name twice is fatal.
     */
    LinkLog *channel(const std::string &name, ChannelKind kind);

    /** Number of registered links. */
    size_t numLinks() const { return links_.size(); }

    /** Total mirrored events across all links. */
    size_t totalEvents() const;

    /** Mirrored events that carry a cascade trace id. */
    size_t tracedEvents() const;

    /** The registered links, in registration order. */
    const std::vector<std::unique_ptr<LinkLog>> &links() const
    {
        return links_;
    }

    /**
     * The events of @p view merged into one deterministic order: by
     * (tick, link name, seq). Independent of registration order, engine
     * thread count, and scheduling.
     */
    std::vector<Entry> merged(View view = View::All) const;

    /** Write the control-log view as CSV (tick,link,kind,seq,...). */
    void writeCsv(std::ostream &out) const;

    /**
     * Write the cascade view as CSV:
     * tick,link,kind,seq,trace,root_tick,hop_latency,value,delivered.
     * The trace id is the root epoch tick + 1, so the hop latency is the
     * causal depth in ticks: how long after the root epoch opened this
     * hop happened.
     */
    void writeCascadeCsv(std::ostream &out) const;

    /** Serialize every link's buffered events (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /**
     * Restore buffered events into the already-registered links, matched
     * by name. Fatal when the snapshot's link set differs from the
     * rebuilt wiring (topology/config mismatch).
     */
    void loadState(ckpt::SectionReader &r);

  private:
    bool traced_only_;
    std::vector<std::unique_ptr<LinkLog>> links_;
};

} // namespace bus
} // namespace nps

#endif // NPS_BUS_CONTROL_LOG_H
