/**
 * @file
 * Group Manager (GM): power capping at the rack / zone / data-center
 * level.
 *
 * Works like the EM one level up (Eq. GMs): each interval it divides the
 * group budget among its children — child group managers (a zone GM
 * parenting rack GMs), blade enclosures (through their EMs) and
 * standalone servers (through their SMs) — proportionally to their
 * recent power by default. GMs nest to arbitrary depth: a child GM
 * receives its parent's grant on a typed GM→GM budget link and enforces
 * min(its own static cap, the grant), exactly the coordination rule the
 * EM and SM apply one level down. The paper's Figure 2 stack is the
 * one-GM special case.
 *
 * Coordinated mode respects the hierarchy: enclosure grants go to the EM,
 * which subdivides among its blades. Uncoordinated mode models a solo
 * group capper from a different vendor that is blind to the EMs: it
 * assigns per-*server* budgets directly to every server, silently
 * overwriting whatever the EMs set — the actuator overlap the paper calls
 * the most insidious coordination failure.
 */

#ifndef NPS_CONTROLLERS_GROUP_MANAGER_H
#define NPS_CONTROLLERS_GROUP_MANAGER_H

#include <memory>
#include <string>
#include <vector>

#include "bus/control_link.h"
#include "controllers/enclosure_manager.h"
#include "controllers/policies.h"
#include "controllers/server_manager.h"
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
 * The group-level power capper.
 */
class GroupManager : public sim::Actor, public ViolationTracker
{
  public:
    /** Operating mode (see file comment). */
    enum class Mode
    {
        Coordinated,
        Uncoordinated,
    };

    /** Tunable parameters (defaults follow Figure 5). */
    struct Params
    {
        unsigned period = 50;  //!< control interval T_grp
        DivisionPolicy policy = DivisionPolicy::Proportional;
        /** Per-child priorities (Priority policy only). */
        std::vector<int> priorities;
        uint64_t seed = 2;     //!< RNG seed (Random policy)
        double demand_horizon = 20.0;   //!< short smoothing (ticks)
        double history_horizon = 400.0; //!< History policy smoothing
        Mode mode = Mode::Coordinated;
        /**
         * Budget-lease length in ticks on the parent-GM channel: past it
         * a silent parent makes this GM degrade to lease_fallback * its
         * static cap. Only meaningful for nested GMs (the root has no
         * parent); 0 disables leasing.
         */
        unsigned lease_ticks = 0;
        /** Fraction of the static cap enforced while the lease lapsed. */
        double lease_fallback = 1.0;
    };

    /**
     * The managed children of one GM. Division order (and therefore
     * grant-slot order) is groups, then enclosures, then standalone.
     */
    struct Children
    {
        std::vector<GroupManager *> groups;      //!< nested child GMs
        std::vector<EnclosureManager *> enclosures;
        std::vector<ServerManager *> standalone;
        /**
         * SMs of every server in this GM's scope (subtree), in server-id
         * order — the uncoordinated direct-to-server mode's targets and
         * the basis of the scope power measurement.
         */
        std::vector<ServerManager *> all_servers;
    };

    /**
     * The paper's single flat GM over the whole cluster: id 0, name
     * "GM", no child groups.
     */
    GroupManager(sim::Cluster &cluster,
                 std::vector<EnclosureManager *> enclosures,
                 std::vector<ServerManager *> standalone,
                 std::vector<ServerManager *> all_servers,
                 double static_cap, const Params &params);

    /**
     * General (possibly nested) GM.
     *
     * @param cluster    The cluster.
     * @param id         Fault-target / GM→GM link id, unique per GM.
     * @param name       Actor name; also keys the RNG stream.
     * @param children   Managed children (see Children).
     * @param static_cap This group's own budget.
     * @param params     Controller parameters.
     */
    GroupManager(sim::Cluster &cluster, long id, std::string name,
                 Children children, double static_cap,
                 const Params &params);

    /// @name sim::Actor
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    void observe(size_t tick) override;
    void step(size_t tick) override;
    /// @}

    /** The group's own static budget. */
    double staticCap() const { return static_cap_; }

    /// @name Budget channel (driven by a parent GM, nested GMs only)
    /// @{

    /** Grant from the parent GM; effective = min(static, grant). */
    void setBudget(double watts);

    /**
     * Timestamped variant: additionally refreshes the parent lease and
     * adopts the grant's cascade trace id as this GM's trace context.
     */
    void setBudget(double watts, size_t tick, uint32_t trace = 0);

    /** The budget currently being enforced (ignoring lease expiry). */
    double effectiveCap() const;

    /**
     * The budget divided at @p tick: effectiveCap(), unless the parent
     * lease has lapsed, in which case min(static, fallback * static).
     */
    double currentCap(size_t tick) const;

    /// @}

    /** This GM's id (0 for the root). */
    long id() const { return id_; }

    /** @return true when a parent GM feeds this one. */
    bool hasParent() const { return has_parent_; }

    /** Total last-tick power of every server in this GM's scope. */
    double scopePower() const;

    /**
     * scopePower() as seen at tick @p tick, folded once per tick: the
     * first call of a tick sums the scope and later calls — this GM's
     * own observe and step, its parent's observe — reuse that sum. The
     * server power array changes only in Cluster::evaluateTick, after
     * every actor of the tick has run, so the memo is exact.
     */
    double scopePower(size_t tick) const;

    /** The SMs of every server in this GM's scope, in id order. */
    const std::vector<ServerManager *> &allServers() const
    {
        return all_servers_;
    }

    /** The nested child GMs (empty for a flat Figure-2 GM). */
    const std::vector<GroupManager *> &childGroups() const
    {
        return groups_;
    }

    /** The most recent per-child grants (coordinated mode). */
    const std::vector<double> &lastGrants() const { return last_grants_; }

    /// @name Fault injection
    /// @{

    /**
     * Attach the fault oracle (null = fault-free, the default). The
     * oracle is propagated to this GM's outgoing budget links, where
     * drop/stale faults are actually applied.
     */
    void setFaultInjector(const fault::FaultInjector *faults);

    /** Degradation counters accumulated by the GM. */
    const fault::DegradeStats &degradeStats() const { return degrade_; }

    /// @}

    /**
     * Attach the stream-liveness oracle of an online run (src/stream/)
     * to this GM's server-targeting budget links (GM→SM: standalone
     * grants and the uncoordinated direct-to-server channels): grants
     * to a server whose telemetry stream is silent are dropped like a
     * lost link. Group- and enclosure-targeting links are unaffected —
     * stream liveness is a per-server property. Null detaches.
     */
    void setStreamHealth(const fault::StreamHealth *health);

    /** Mirror this GM's outgoing budget links into @p log. */
    void attachControlLog(bus::ControlPlaneLog *log);

    /**
     * Cascade trace context: the root GM's is the epoch it most
     * recently opened (tick + 1 of its last division); a nested GM's is
     * the trace id of the last parent grant it received.
     */
    uint32_t cascadeStamp() const override { return trace_ctx_; }

    /**
     * Route this GM's outgoing budget links through @p transport (null
     * detaches). @p owner maps the link's owning (level, id) to the
     * process rank hosting it; all of this GM's links are owned by
     * (Gm, id()). Wiring time only, before the engine runs.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner);

    /**
     * Register this GM's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);

  private:
    /** Coordinated step: divide among groups + enclosures + standalone. */
    void stepCoordinated(size_t tick);

    /** Uncoordinated step: divide among all servers directly. */
    void stepUncoordinated(size_t tick);

    /** @return true when the parent budget lease lapsed as of @p tick. */
    bool leaseLapsed(size_t tick) const;

    /** Register one coordinated child budget link (slot order). */
    void addChildLink(fault::Link link, long child,
                      const std::string &peer, bus::BudgetLink::Sink sink);

    /** Cold restart after an outage: forget estimates and grant state. */
    void restartCold(size_t tick);

    sim::Cluster &cluster_;
    long id_;
    std::vector<GroupManager *> groups_;
    std::vector<EnclosureManager *> enclosures_;
    std::vector<ServerManager *> standalone_;
    std::vector<ServerManager *> all_servers_;
    /**
     * Server ids of all_servers_, in the same order: the scope power
     * fold and the per-server estimate loops index the cluster's
     * contiguous SoA power array through these ids instead of chasing
     * SM -> Server -> store pointers, which at fleet scale turns a
     * cache-missing pointer walk into a linear array scan (identical
     * values, identical fold order).
     */
    std::vector<sim::ServerId> scope_ids_;
    /** Server ids of standalone_, read the same way each observe. */
    std::vector<sim::ServerId> standalone_ids_;
    /**
     * Per-server demand estimates feed only the uncoordinated
     * direct-to-server division; coordinated GMs skip maintaining them
     * (the vectors stay zero-filled, keeping the checkpoint layout).
     */
    bool track_server_ewmas_ = true;
    double static_cap_;
    double dynamic_cap_;
    Params params_;
    std::string name_;
    util::Rng rng_;
    /** Child power estimates: coordinated children then all servers. */
    std::vector<double> child_demand_;
    std::vector<double> child_history_;
    std::vector<double> server_demand_;
    std::vector<double> server_history_;
    std::vector<double> last_grants_;
    /** Coordinated-mode budget channels, in child (slot) order. */
    std::vector<std::unique_ptr<bus::BudgetLink>> child_links_;
    /** Uncoordinated-mode direct-to-server channels, in server order. */
    std::vector<std::unique_ptr<bus::BudgetLink>> server_links_;
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats degrade_;
    bool has_parent_ = false;
    /** scopePower(tick) memo; kNoTick = empty. */
    static constexpr size_t kNoTick = static_cast<size_t>(-1);
    mutable size_t scope_tick_ = kNoTick;
    mutable double scope_power_ = 0.0;
    size_t budget_tick_ = 0;     //!< receipt tick of the live grant
    uint32_t trace_ctx_ = 0;     //!< cascade trace context (see above)
    bool lease_expired_ = false; //!< edge detector for lease_expiries
    bool was_down_ = false;      //!< edge detector for restarts

    obs::Counter *obs_divisions_ = nullptr;
    obs::Counter *obs_lease_expiries_ = nullptr;
    obs::Counter *obs_restarts_ = nullptr;
    obs::Gauge *obs_cap_ = nullptr;
    obs::Gauge *obs_scope_power_ = nullptr;
    obs::Histogram *obs_grants_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_GROUP_MANAGER_H
