/**
 * @file
 * FaultInjector: the runtime query surface of a materialized
 * FaultSchedule, plus the degradation bookkeeping the controllers keep
 * while riding out faults.
 *
 * Determinism contract (preserves PR 1's bit-identity across thread
 * counts): the injector is immutable after construction and every query
 * is a pure function of (schedule, seed, target, tick). Probabilistic
 * faults (per-send budget drops, sensor noise) derive their randomness
 * from a counter-mode RNG keyed by (seed, kind, target, tick) — never
 * from shared mutable RNG state, wall clock, or thread identity — so a
 * kernel slot on any worker thread sees exactly the serial answer.
 */

#ifndef NPS_FAULT_INJECTOR_H
#define NPS_FAULT_INJECTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/snapshot.h"
#include "fault/fault.h"

namespace nps {
namespace fault {

/**
 * Degradation counters of one controller (or, aggregated, of a whole
 * deployment): how often the graceful-degradation paths fired. Surfaced
 * through sim::MetricsSummary and the Coordinator.
 */
struct DegradeStats
{
    unsigned long outage_ticks = 0;    //!< ticks spent down
    unsigned long outage_steps = 0;    //!< control steps skipped while down
    unsigned long restarts = 0;        //!< cold restarts after an outage
    unsigned long lease_expiries = 0;  //!< budget leases that lapsed
    unsigned long lease_fallback_steps = 0; //!< steps on the expired-lease cap
    unsigned long ec_fallback_steps = 0; //!< SM direct-P-state steps (EC down)
    unsigned long dropped_budgets = 0; //!< budget sends lost on a link
    unsigned long stale_budgets = 0;   //!< budget sends delivered stale
    unsigned long stuck_actuations = 0; //!< P-state writes swallowed
    unsigned long noisy_reads = 0;     //!< sensor reads perturbed/frozen
    /// @name netem wire degradation (docs/NETWORK_FAULTS.md)
    /// @{
    unsigned long netem_delayed = 0;   //!< sends parked on the virtual wire
    unsigned long netem_late_deliveries = 0; //!< delayed sends that arrived
    unsigned long netem_expired = 0;   //!< delayed past the grant deadline
    unsigned long netem_partition_drops = 0; //!< sends lost to a partition
    unsigned long netem_reorder_drops = 0; //!< late sends a fresher one beat
    /// @}

    DegradeStats &operator+=(const DegradeStats &o);

    /** @return true when every counter is zero. */
    bool none() const;

    /** Serialize all counters (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore all counters (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);
};

/**
 * Read-only fault oracle handed to the controllers and the recorder.
 */
class FaultInjector
{
  public:
    /**
     * @param schedule The materialized campaign.
     * @param seed     Seed of the per-(target, tick) randomness streams.
     */
    FaultInjector(FaultSchedule schedule, uint64_t seed);

    /** The campaign. */
    const FaultSchedule &schedule() const { return schedule_; }

    /** @return true when controller @p id at @p level is down at @p tick. */
    bool down(Level level, long id, size_t tick) const;

    /**
     * Roll the per-send drop coin for the budget message to child @p id
     * on @p link at @p tick. Deterministic in its arguments.
     */
    bool budgetDropped(Link link, long id, size_t tick) const;

    /** @return true when @p link delivers child @p id a stale grant. */
    bool budgetStale(Link link, long id, size_t tick) const;

    /** @return true when server @p id's P-state actuator ignores writes. */
    bool pstateStuck(long id, size_t tick) const;

    /** @return true when server @p id's utilization sensor is frozen. */
    bool utilFrozen(long id, size_t tick) const;

    /**
     * Additive sensor-noise deviate for server @p id at @p tick: a
     * Gaussian draw scaled by the active UtilNoise event's sigma, 0.0
     * when no such event is active. Deterministic in its arguments.
     */
    double utilNoise(long id, size_t tick) const;

    /** Number of schedule events active at @p tick (for telemetry). */
    size_t activeCount(size_t tick) const;

  private:
    const FaultEvent *find(FaultKind kind, size_t tick, Level level,
                           Link link, long id) const;

    FaultSchedule schedule_;
    uint64_t seed_;
    /** Events bucketed by kind for cheap scans. */
    std::vector<FaultEvent> by_kind_[6];
};

} // namespace fault
} // namespace nps

#endif // NPS_FAULT_INJECTOR_H
