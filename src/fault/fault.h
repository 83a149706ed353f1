/**
 * @file
 * Fault model of the coordination stack: the failure scenarios a real
 * deployment of the paper's GM→EM→SM→EC→VMC hierarchy must survive.
 *
 * Faults are *events*: half-open tick intervals [start, end) during which
 * one failure mode is active against one target (or a whole level). The
 * supported modes are
 *
 *   Outage      — a controller at any level (GM, EM, SM, EC, VMC, CAP) is
 *                 down: it neither observes nor steps, and restarts cold
 *                 when the interval ends;
 *   DropBudget  — budget recommendations on a GM→EM, GM→SM, EM→SM, or
 *                 GM→GM link are lost with a given probability per send;
 *   StaleBudget — the link delivers the *previous* epoch's grant instead
 *                 of the fresh one (a delayed/stale management message);
 *   StuckPState — the P-state actuator of a server ignores writes (a
 *                 stuck/lagged firmware actuator);
 *   UtilNoise   — the utilization sensor reads with additive Gaussian
 *                 noise of the event's sigma;
 *   UtilFreeze  — the utilization sensor is frozen at its last pre-fault
 *                 reading (stale telemetry).
 *
 * A FaultSchedule is the complete campaign: scripted events, plus events
 * generated from a seeded random campaign description. Schedules are
 * fully materialized before the run, so every runtime query is read-only
 * and the PR 1 bit-identity guarantee holds across thread counts
 * (docs/FAULTS.md).
 */

#ifndef NPS_FAULT_FAULT_H
#define NPS_FAULT_FAULT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nps {
namespace fault {

/** Failure modes (see file comment). */
enum class FaultKind
{
    Outage,
    DropBudget,
    StaleBudget,
    StuckPState,
    UtilNoise,
    UtilFreeze,
};

/** Controller levels an Outage can target. */
enum class Level
{
    GM,
    EM,
    SM,
    EC,
    VMC,
    CAP,
};

/** Budget-message links DropBudget/StaleBudget can target. */
enum class Link
{
    GmToEm,  //!< group manager -> enclosure manager (child = enclosure id)
    GmToSm,  //!< group manager -> server manager (child = server id)
    EmToSm,  //!< enclosure manager -> blade SM (child = server id)
    GmToGm,  //!< parent GM -> child GM (child = child GM id)
};

/** Script/diagnostic name of a fault kind. */
const char *faultKindName(FaultKind kind);

/** Script/diagnostic name of a level. */
const char *levelName(Level level);

/** Every link class, in declaration order. */
inline constexpr Link kAllLinks[] = {Link::GmToEm, Link::GmToSm,
                                     Link::EmToSm, Link::GmToGm};

/** Script/diagnostic name of a link. */
const char *linkName(Link link);

/** The link whose script name is @p name; false when none is. */
bool linkFromName(const std::string &name, Link &out);

/**
 * One fault event: @p kind active against one target during the half-open
 * tick interval [start, end).
 */
struct FaultEvent
{
    /** Wildcard id: the event applies to every instance of the target. */
    static constexpr long kAll = -1;

    FaultKind kind = FaultKind::Outage;
    Level level = Level::SM;  //!< Outage / StuckPState / Util* target level
    Link link = Link::EmToSm; //!< DropBudget / StaleBudget target link
    long id = kAll;           //!< target instance id, or kAll
    size_t start = 0;         //!< first tick the fault is active
    size_t end = 0;           //!< first tick the fault is inactive
    /**
     * Kind-specific magnitude: drop probability per send (DropBudget),
     * sensor noise sigma (UtilNoise); unused otherwise.
     */
    double magnitude = 1.0;

    /** @return true when the event is active at @p tick. */
    bool activeAt(size_t tick) const { return tick >= start && tick < end; }

    /** @return the one-line script form (parseable by parseSchedule). */
    std::string toText() const;
};

/**
 * Seeded-random campaign description: how many events of each kind to
 * scatter over a horizon. All zero (the default) generates nothing.
 */
struct RandomFaultConfig
{
    size_t horizon = 1000;    //!< ticks the campaign spreads over
    unsigned outages = 0;     //!< controller outages (any level)
    unsigned outage_len = 50; //!< mean outage duration (ticks)
    unsigned drops = 0;       //!< budget-drop windows (any link)
    unsigned drop_len = 50;   //!< mean drop-window duration
    double drop_prob = 1.0;   //!< per-send drop probability in a window
    unsigned stales = 0;      //!< stale-budget windows (any link)
    unsigned stale_len = 50;  //!< mean stale-window duration
    unsigned stucks = 0;      //!< stuck-P-state windows
    unsigned stuck_len = 25;  //!< mean stuck-window duration
    unsigned noises = 0;      //!< noisy-telemetry windows
    unsigned noise_len = 50;  //!< mean noise-window duration
    double noise_sigma = 0.1; //!< sensor noise sigma in a window
    unsigned freezes = 0;     //!< frozen-telemetry windows
    unsigned freeze_len = 50; //!< mean freeze-window duration

    /** @return true when any event count is non-zero. */
    bool any() const;
};

/**
 * A complete, materialized fault campaign.
 */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /** A schedule holding exactly @p events. */
    explicit FaultSchedule(std::vector<FaultEvent> events);

    /**
     * Parse the event script @p text: one event per line (or per
     * ';'-separated clause), '#' comments. Grammar (docs/FAULTS.md):
     *
     *   outage <gm|em|sm|ec|vmc|cap> <id|*> <start> <end>
     *   drop   <gm-em|gm-sm|em-sm|gm-gm> <id|*> <start> <end> [prob]
     *   stale  <gm-em|gm-sm|em-sm|gm-gm> <id|*> <start> <end>
     *   stuck  <id|*> <start> <end>
     *   noise  <id|*> <start> <end> <sigma>
     *   freeze <id|*> <start> <end>
     *
     * fatal() on malformed input.
     */
    static FaultSchedule parse(const std::string &text);

    /**
     * Generate a seeded-random campaign over a cluster of @p num_servers
     * servers and @p num_enclosures enclosures. Deterministic in
     * (@p cfg, @p seed): wall clock and thread count never enter.
     */
    static FaultSchedule randomized(const RandomFaultConfig &cfg,
                                    uint64_t seed, size_t num_servers,
                                    size_t num_enclosures);

    /** Append one event. */
    void add(const FaultEvent &event);

    /** Append every event of @p other. */
    void merge(const FaultSchedule &other);

    /** The events, in insertion order. */
    const std::vector<FaultEvent> &events() const { return events_; }

    /** @return true when the schedule holds no events. */
    bool empty() const { return events_.empty(); }

    /** First tick at which no event is active anymore (0 when empty). */
    size_t lastEnd() const;

    /**
     * Render as a script parse() accepts, clauses joined by @p sep
     * (use "\n" for files, "; " for inline INI values).
     */
    std::string toText(const std::string &sep = "\n") const;

  private:
    std::vector<FaultEvent> events_;
};

/**
 * The [faults] configuration block: everything needed to build the
 * injector for one deployment. Carried inside core::CoordinationConfig.
 */
struct FaultSetup
{
    /** Master switch: when false the fault layer is entirely absent and
     * the simulation is bit-identical to a build without it. */
    bool enabled = false;

    /** Seed of the fault RNG streams (random campaign, drop coin flips,
     * sensor noise). Independent of the trace seed. */
    uint64_t seed = 1;

    /** Inline event script (FaultSchedule::parse grammar). */
    std::string script;

    /** Seeded-random campaign generated on top of the script. */
    RandomFaultConfig random;

    /** @return true when enabled with at least one fault source. */
    bool
    anyFaults() const
    {
        return enabled && (!script.empty() || random.any());
    }
};

} // namespace fault
} // namespace nps

#endif // NPS_FAULT_FAULT_H
