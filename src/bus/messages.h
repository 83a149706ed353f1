/**
 * @file
 * Typed control-plane messages: the vocabulary of the Figure 4
 * coordination channels, made explicit.
 *
 * The paper coordinates its federated controllers by overloading
 * classical control interfaces — budgets flow down, violation feedback
 * flows up, references flow into nested loops. This header names those
 * flows as message types so every link in the hierarchy (GM→GM, GM→EM,
 * GM→SM, EM→SM, SM→EC, capper/VMC telemetry) speaks one typed,
 * sequence-numbered protocol instead of ad-hoc method calls.
 */

#ifndef NPS_BUS_MESSAGES_H
#define NPS_BUS_MESSAGES_H

#include <cstddef>
#include <cstdint>

namespace nps {
namespace bus {

/** What a channel carries. */
enum class ChannelKind
{
    Budget,    //!< downstream power budget grants (watts)
    Violation, //!< upstream budget-violation feedback (rates)
    Reference, //!< nested-loop reference updates (e.g. the EC's r_ref)
    Telemetry, //!< one-way observability samples (clamps, mode changes)
};

/** Diagnostic name of a channel kind. */
const char *channelKindName(ChannelKind kind);

/** A power budget grant flowing down the capping hierarchy. */
struct BudgetGrant
{
    double watts = 0.0; //!< the granted budget
    size_t tick = 0;    //!< send tick (refreshes the receiver's lease)
    uint64_t seq = 0;   //!< per-link sequence number (1-based)
    uint32_t trace = 0; //!< cascade trace id (0 = untraced)
};

/** Budget-violation feedback flowing up to the consolidator. */
struct ViolationReport
{
    double epoch_rate = 0.0;    //!< violations per tick since last drain
    double lifetime_rate = 0.0; //!< violations per tick since start
    size_t tick = 0;            //!< poll tick
    uint64_t seq = 0;           //!< per-link sequence number (1-based)
};

/** A reference update on a nested control loop (SM → EC). */
struct ReferenceUpdate
{
    double r_ref = 0.0; //!< the new utilization reference
    size_t tick = 0;    //!< send tick
    uint64_t seq = 0;   //!< per-link sequence number (1-based)
};

/** A one-way observability sample (CAP clamps, MM mode switches). */
struct TelemetrySample
{
    double value = 0.0; //!< primary reading (kind-specific)
    double aux = 0.0;   //!< secondary reading (kind-specific)
    size_t tick = 0;    //!< sample tick
    uint64_t seq = 0;   //!< per-link sequence number (1-based)
};

/**
 * One mirrored control-plane event, as stored by the ControlPlaneLog:
 * the union of all message types flattened into (value, aux) plus the
 * delivery outcome the fault layer decided and the cascade trace id the
 * message carried.
 */
struct ControlEvent
{
    size_t tick = 0;    //!< send/poll tick
    uint64_t seq = 0;   //!< per-link sequence number (1-based)
    ChannelKind kind = ChannelKind::Budget;
    uint32_t trace = 0; //!< cascade trace id (0 = untraced)
    double value = 0.0; //!< delivered payload (watts, rate, r_ref, ...)
    double aux = 0.0;   //!< secondary payload (intended watts, ...)
    bool delivered = true; //!< false when a fault dropped the message
    bool stale = false;    //!< true when a fault replayed the previous one
};

// The trace id sits in the padding after kind: a log entry costs the
// same with or without cascade tracing.
static_assert(sizeof(ControlEvent) == 48, "ControlEvent grew");

} // namespace bus
} // namespace nps

#endif // NPS_BUS_MESSAGES_H
