/**
 * @file
 * Server Manager (SM): per-server thermal power capping.
 *
 * Coordinated design (Section 3.1): nested on the EC, the SM actuates the
 * EC's utilization reference r_ref instead of touching P-states:
 *
 *     r_ref(k) = r_ref(k-1) - beta_loc * (cap_loc - pow(k-1))    (Eq. SM)
 *
 * A power reading above the budget raises r_ref, which makes the EC shrink
 * the container (deeper P-state), which lowers power. Stability holds for
 * 0 < beta < 2 / c_max (Appendix A). A lower bound of 75% on r_ref keeps
 * servers reasonably utilized when under budget.
 *
 * Uncoordinated (commercial-solo) design: steps the P-state directly on a
 * violation — the configuration whose interaction with an independently
 * deployed EC produces the paper's "power struggle".
 *
 * The SM's budget input is the coordination channel of the EM/GM: the
 * effective cap is min(static local budget, latest recommendation). The SM
 * also exposes its budget-violation history (the CIM/DMTF stand-in) for
 * the VMC's consolidation-aggressiveness feedback.
 *
 * Layout: like the EC (controllers/efficiency.h), a fleet's SM state is
 * one struct-of-arrays store, SmStateSoA, run as one kernel actor;
 * ServerManager is a thin view of one slot, and a standalone-built SM
 * owns a one-slot store stepped by the same kernel.
 */

#ifndef NPS_CONTROLLERS_SERVER_MANAGER_H
#define NPS_CONTROLLERS_SERVER_MANAGER_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bus/control_link.h"
#include "bus/violation.h"
#include "controllers/efficiency.h"
#include "fault/injector.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace nps {
namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
class TraceChannel;
class TraceSink;
} // namespace obs

namespace controllers {

/**
 * The violation-history interfaces live in the bus layer (they are the
 * payload of the upstream feedback channel); these aliases keep the
 * controllers' historical spelling.
 */
using ViolationSource = bus::ViolationSource;
using ViolationTracker = bus::ViolationTracker;

/**
 * Physical grant bounds of one server, used by the budget-division
 * levels: a powered-off machine is pinned at its residual off draw,
 * while a live one can usefully receive anything between its deepest
 * idle power and its peak.
 */
struct GrantBounds
{
    double floor = 0.0;  //!< smallest allocation the server can honor
    double max = 0.0;    //!< largest allocation it could ever consume
};

/** Compute the grant bounds of @p server as of @p tick. */
GrantBounds grantBounds(const sim::Server &server, size_t tick);

/** SM operating mode. */
enum class SmMode
{
    /** Actuate the EC's r_ref (the paper's coordinated design). */
    Coordinated,
    /**
     * Actuate P-states directly, as a solo commercial capper does;
     * deployed next to an independent EC this is the power struggle.
     */
    DirectPState,
};

/** Tunable SM parameters (defaults follow Figure 5). */
struct SmParams
{
    double beta = 1.0;        //!< gain, in r_ref per *normalized* watt
    double r_ref_min = 0.75;  //!< lower bound on the EC target
    double r_ref_max = 2.0;   //!< anti-windup upper bound
    unsigned period = 5;      //!< control interval T_sm
    SmMode mode = SmMode::Coordinated;
    /**
     * Gain multiplier applied when power is *under* the cap, so the
     * throttle releases more slowly than it engages. Damps the limit
     * cycle around the P-state quantization boundary.
     */
    double release_gain_ratio = 0.25;
    /**
     * In DirectPState mode: headroom fraction under the cap below
     * which the capper steps the P-state back up.
     */
    double unthrottle_margin = 0.12;
    /**
     * Budget-lease length in ticks: a dynamic grant received at tick t
     * is trusted through t + lease_ticks; past that the SM assumes its
     * parent is silent (down, or the link is dropping) and degrades to
     * the conservative local cap lease_fallback * CAP_LOC. 0 disables
     * leasing (grants never expire — the pre-fault behavior).
     */
    unsigned lease_ticks = 0;
    /** Fraction of CAP_LOC enforced while the lease is expired. */
    double lease_fallback = 1.0;
};

/**
 * The SM loop state of a set of servers, one array per field. Slot i
 * caps server[i]; a cluster-wide store has slot == server id. Either
 * every slot nests on an EC slot — and owns the r_ref reference link
 * into it — or none does.
 */
struct SmStateSoA
{
    /** Per-slot observability cells; null when not registered. */
    struct Obs
    {
        obs::Counter *grant_clamps = nullptr;
        obs::Counter *lease_expiries = nullptr;
        obs::Counter *ec_fallback_steps = nullptr;
        obs::Counter *restarts = nullptr;
        obs::Gauge *cap = nullptr;
        obs::TraceChannel *trace = nullptr;
    };

    explicit SmStateSoA(const SmParams &params);

    /**
     * Append a slot capping @p server at @p static_cap, nested on slot
     * @p ec_slot of @p ec (null: no EC, DirectPState mode only). Its
     * r_ref link is named "SM/<id>->EC/<id>" and writes the EC slot's
     * reference directly. fatal() on a non-positive cap or a
     * coordinated slot without an EC; warns when beta violates the
     * stability bound. Wiring time only. @return the new slot.
     */
    uint32_t add(sim::Server &server, EcStateSoA *ec, uint32_t ec_slot,
                 double static_cap);

    /** Number of slots. */
    size_t size() const { return server.size(); }

    /** Control interval of every slot. */
    unsigned period() const { return params.period; }

    /** Per-tick violation bookkeeping (and outage edges) of [lo, hi). */
    void observe(size_t tick, size_t lo, size_t hi);

    /** The kernel: one control step of slots [lo, hi) at @p tick. */
    void step(size_t tick, size_t lo, size_t hi);

    /** Receive a budget recommendation for slot @p i. */
    void setBudget(size_t i, double watts);

    /** The budget slot @p i enforces, ignoring lease expiry. */
    double effectiveCap(size_t i) const
    {
        if (params.mode == SmMode::Coordinated)
            return std::min(static_cap[i], dynamic_cap[i]);
        // Solo capper: the management console's setting is the setting.
        return dynamic_cap[i];
    }

    /** @return true when slot @p i's lease has lapsed as of @p tick. */
    bool leaseLapsed(size_t i, size_t tick) const
    {
        return params.mode == SmMode::Coordinated &&
               params.lease_ticks > 0 &&
               tick > budget_tick[i] + params.lease_ticks;
    }

    /** The budget slot @p i enforces at @p tick, lease included. */
    double currentCap(size_t i, size_t tick) const
    {
        if (leaseLapsed(i, tick))
            return std::min(static_cap[i],
                            params.lease_fallback * static_cap[i]);
        return effectiveCap(i);
    }

    /** Register slot @p slot's metrics and trace channel as @p name. */
    void attachObs(uint32_t slot, const std::string &name,
                   obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize slot @p slot (the per-object byte layout). */
    void saveState(uint32_t slot, ckpt::SectionWriter &w) const;

    /** Restore slot @p slot; @p name labels a link mismatch. */
    void loadState(uint32_t slot, ckpt::SectionReader &r,
                   const std::string &name);

    SmParams params;
    const fault::FaultInjector *faults = nullptr; //!< null = fault-free

    /// @name Per-slot state
    /// @{
    std::vector<sim::Server *> server;
    std::vector<double> static_cap;       //!< CAP_LOC
    std::vector<double> dynamic_cap;      //!< latest parent grant
    std::vector<double> cap_ref;          //!< the loop's power setpoint
    std::vector<double> last_measurement; //!< sensed power
    std::vector<double> last_error;       //!< cap_ref - measurement
    std::vector<uint64_t> steps;          //!< completed loop steps
    std::vector<double> r_ref;            //!< Eq. SM integrator state
    std::vector<ViolationTracker> violations;
    std::vector<uint64_t> step_tick;      //!< tick of the last step
    std::vector<fault::DegradeStats> degrade;
    std::vector<uint64_t> budget_tick;    //!< receipt tick of the grant
    std::vector<uint32_t> trace_ctx;      //!< cascade id of that grant
    std::vector<uint8_t> lease_expired;   //!< edge: lease_expiries
    std::vector<uint8_t> was_down;        //!< edge: restarts
    std::vector<uint8_t> ec_fallback;     //!< edge: EC-down tracing
    /** SM -> EC r_ref channels, one per slot (empty without ECs). */
    std::deque<bus::ReferenceLink> ref_link;
    std::vector<Obs> obs;                 //!< empty until attachObs()
    /// @}

  private:
    void observeSlot(size_t i, size_t tick, Obs *o);
    void stepSlot(size_t i, size_t tick, Obs *o);
    void stepDirect(size_t i, size_t tick, double cap, Obs *o);
    void restartCold(size_t i, size_t tick);
};

/** The fleet's SM kernel actor, named "SM/fleet". */
using SmKernel = sim::KernelActor<SmStateSoA>;

/**
 * The per-server power capper: a view of one SmStateSoA slot.
 */
class ServerManager : public ViolationSource
{
  public:
    /** Operating mode. */
    using Mode = SmMode;

    /** Tunable parameters (defaults follow Figure 5). */
    using Params = SmParams;

    /**
     * Standalone SM over a private one-slot store.
     * @param server     The managed server.
     * @param ec         The nested EC (required in Coordinated mode; may
     *                   be null in DirectPState mode).
     * @param static_cap The server's own local power budget CAP_LOC.
     * @param params     Controller parameters.
     */
    ServerManager(sim::Server &server, EfficiencyController *ec,
                  double static_cap, const Params &params);

    /** View of slot @p slot of a shared (fleet) store. */
    ServerManager(std::shared_ptr<SmStateSoA> store, uint32_t slot);

    /** Diagnostic name, "SM/<server id>". */
    const std::string &name() const { return name_; }

    /** Control interval T_sm. */
    unsigned period() const { return store_->period(); }

    /** Per-tick violation bookkeeping of this slot. */
    void observe(size_t tick) { store_->observe(tick, slot_, slot_ + 1); }

    /** One control step of this slot at @p tick. */
    void step(size_t tick) { store_->step(tick, slot_, slot_ + 1); }

    /// @name Budget channel (driven by the EM / GM)
    /// @{

    /**
     * Receive a budget recommendation from an upper-level capper.
     * Coordinated mode keeps min(static, recommendation); DirectPState
     * mode adopts the recommendation verbatim (solo products trust their
     * management console), which is exactly how uncoordinated stacks leak
     * above local limits.
     */
    void setBudget(double watts) { store_->setBudget(slot_, watts); }

    /**
     * Timestamped variant: additionally refreshes the budget lease, so a
     * parent that keeps sending keeps the SM on the dynamic grant, and
     * adopts the grant's cascade trace id as this SM's context. The
     * coordination stack always sends through this overload; the plain one
     * exists for lease-agnostic callers (tests, scripted experiments).
     */
    void setBudget(double watts, size_t tick, uint32_t trace = 0);

    /** Cascade trace id of the last parent grant received (0 = none). */
    uint32_t cascadeStamp() const override
    {
        return store_->trace_ctx[slot_];
    }

    /** The budget currently being enforced (ignoring lease expiry). */
    double effectiveCap() const { return store_->effectiveCap(slot_); }

    /**
     * The budget enforced at @p tick: effectiveCap(), unless the lease
     * has lapsed, in which case the conservative local fallback
     * min(CAP_LOC, lease_fallback * CAP_LOC).
     */
    double currentCap(size_t tick) const
    {
        return store_->currentCap(slot_, tick);
    }

    /** The server's own static budget CAP_LOC. */
    double staticCap() const { return store_->static_cap[slot_]; }

    /** The power setpoint of the last step (the loop's reference). */
    double reference() const { return store_->cap_ref[slot_]; }

    /// @}

    /// @name ViolationSource
    /// @{
    double epochViolationRate() const override
    {
        return store_->violations[slot_].epochViolationRate();
    }
    void drainEpoch() override { store_->violations[slot_].drainEpoch(); }
    double lifetimeViolationRate() const override
    {
        return store_->violations[slot_].lifetimeViolationRate();
    }
    /// @}

    /// @name Fault injection
    /// @{

    /**
     * Attach the fault oracle (null = fault-free, the default). The
     * oracle is per store: on a fleet view it covers every slot.
     */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        store_->faults = faults;
    }

    /** Degradation counters accumulated by this SM. */
    const fault::DegradeStats &degradeStats() const
    {
        return store_->degrade[slot_];
    }

    /// @}

    /**
     * Mirror this SM's outgoing control traffic (the r_ref reference
     * channel into the nested EC) into @p log; null detaches.
     */
    void attachControlLog(bus::ControlPlaneLog *log);

    /**
     * Route the r_ref reference link through @p transport (null
     * detaches); it is owned by (Sm, server id). Wiring time only,
     * before the engine runs.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner);

    /**
     * Register this SM's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace)
    {
        store_->attachObs(slot_, name_, metrics, trace);
    }

    /** Active parameters. */
    const Params &params() const { return store_->params; }

    /** The managed server. */
    const sim::Server &server() const { return *store_->server[slot_]; }

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const
    {
        store_->saveState(slot_, w);
    }

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r)
    {
        store_->loadState(slot_, r, name_);
    }

  private:
    std::shared_ptr<SmStateSoA> store_;
    uint32_t slot_;
    std::string name_;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_SERVER_MANAGER_H
