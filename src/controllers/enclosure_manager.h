/**
 * @file
 * Enclosure Manager (EM): power capping across the blades of one
 * enclosure.
 *
 * Each interval the EM compares the enclosure's power draw with its
 * effective budget and re-provisions per-blade budgets for the next epoch
 * (Eq. EM: proportional share by default; other policies pluggable). The
 * blades' SMs take the min of this recommendation and their own local
 * budget — that min() *is* the coordination interface.
 */

#ifndef NPS_CONTROLLERS_ENCLOSURE_MANAGER_H
#define NPS_CONTROLLERS_ENCLOSURE_MANAGER_H

#include <memory>
#include <string>
#include <vector>

#include "bus/control_link.h"
#include "controllers/policies.h"
#include "controllers/server_manager.h"
#include "fault/injector.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "util/random.h"

namespace nps {
namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TraceChannel;
class TraceSink;
} // namespace obs

namespace controllers {

/**
 * The per-enclosure power capper.
 */
class EnclosureManager : public sim::Actor, public ViolationTracker
{
  public:
    /** Tunable parameters (defaults follow Figure 5). */
    struct Params
    {
        unsigned period = 25;  //!< control interval T_em
        DivisionPolicy policy = DivisionPolicy::Proportional;
        /** Per-blade priorities (Priority policy only; defaults to 0). */
        std::vector<int> priorities;
        uint64_t seed = 1;     //!< RNG seed (Random policy)
        /** Smoothing horizon (ticks) of the short demand estimate. */
        double demand_horizon = 10.0;
        /** Smoothing horizon of the History policy's long estimate. */
        double history_horizon = 200.0;
        /**
         * Budget-lease length in ticks on the GM→EM channel: past it a
         * silent GM makes the EM degrade to lease_fallback * CAP_ENC.
         * 0 disables leasing (the pre-fault behavior).
         */
        unsigned lease_ticks = 0;
        /** Fraction of CAP_ENC enforced while the lease is expired. */
        double lease_fallback = 1.0;
    };

    /**
     * @param cluster    The cluster (for power sensors and budget data).
     * @param enclosure  Which enclosure this EM manages.
     * @param blades     The SMs of the member blades, in member order.
     * @param static_cap The enclosure's own budget CAP_ENC.
     * @param params     Controller parameters.
     */
    EnclosureManager(sim::Cluster &cluster, sim::EnclosureId enclosure,
                     std::vector<ServerManager *> blades,
                     double static_cap, const Params &params);

    /// @name sim::Actor
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    void observe(size_t tick) override;
    void step(size_t tick) override;
    /// @}

    /** Budget recommendation from the GM; effective = min(static, it). */
    void setBudget(double watts);

    /**
     * Timestamped variant: additionally refreshes the GM budget lease
     * and adopts the grant's cascade trace id as this EM's context.
     */
    void setBudget(double watts, size_t tick, uint32_t trace = 0);

    /** The budget currently being enforced (ignoring lease expiry). */
    double effectiveCap() const;

    /**
     * The budget divided at @p tick: effectiveCap(), unless the GM lease
     * has lapsed, in which case min(CAP_ENC, lease_fallback * CAP_ENC).
     */
    double currentCap(size_t tick) const;

    /** The enclosure's own static budget CAP_ENC. */
    double staticCap() const { return static_cap_; }

    /** The managed enclosure id. */
    sim::EnclosureId enclosureId() const { return enclosure_; }

    /** The most recent per-blade grants (empty before the first step). */
    const std::vector<double> &lastGrants() const { return last_grants_; }

    /// @name Fault injection
    /// @{

    /**
     * Attach the fault oracle (null = fault-free, the default). The
     * oracle is propagated to the EM→SM budget links, where drop/stale
     * faults are actually applied.
     */
    void setFaultInjector(const fault::FaultInjector *faults);

    /** Degradation counters accumulated by this EM. */
    const fault::DegradeStats &degradeStats() const { return degrade_; }

    /// @}

    /**
     * Attach the stream-liveness oracle of an online run (src/stream/)
     * to the EM→SM budget links: grants to a blade whose telemetry
     * stream is silent are dropped like a lost link. Null detaches.
     */
    void setStreamHealth(const fault::StreamHealth *health);

    /** Mirror the EM→SM budget links into @p log; null detaches. */
    void attachControlLog(bus::ControlPlaneLog *log);

    /** Cascade trace id of the last GM grant received (0 = none). */
    uint32_t cascadeStamp() const override { return trace_ctx_; }

    /**
     * Route the EM→SM budget links through @p transport (null
     * detaches); they are owned by (Em, enclosureId()). Wiring time
     * only, before the engine runs.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner);

    /**
     * Register this EM's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);

  private:
    /** @return true when the GM budget lease has lapsed as of @p tick. */
    bool leaseLapsed(size_t tick) const;

    /** Cold restart after an outage: forget estimates and grant state. */
    void restartCold(size_t tick);

    sim::Cluster &cluster_;
    sim::EnclosureId enclosure_;
    std::vector<ServerManager *> blades_;
    /**
     * Server ids of blades_, in member order: the per-blade estimate
     * loop reads the cluster's SoA power array through these ids
     * instead of chasing SM -> Server -> store pointers (identical
     * values; a linear scan at fleet scale).
     */
    std::vector<sim::ServerId> blade_ids_;
    double static_cap_;
    double dynamic_cap_;
    Params params_;
    std::string name_;
    util::Rng rng_;
    std::vector<double> demand_ewma_;
    std::vector<double> history_ewma_;
    std::vector<double> last_grants_;
    /** One budget channel per blade, in member order. */
    std::vector<std::unique_ptr<bus::BudgetLink>> grant_links_;
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats degrade_;
    size_t budget_tick_ = 0;     //!< receipt tick of the live GM grant
    uint32_t trace_ctx_ = 0;     //!< cascade trace id of that grant
    bool lease_expired_ = false; //!< edge detector for lease_expiries
    bool was_down_ = false;      //!< edge detector for restarts

    obs::Counter *obs_divisions_ = nullptr;
    obs::Counter *obs_lease_expiries_ = nullptr;
    obs::Counter *obs_restarts_ = nullptr;
    obs::Gauge *obs_cap_ = nullptr;
    obs::Histogram *obs_grants_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_ENCLOSURE_MANAGER_H
