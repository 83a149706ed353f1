/**
 * @file
 * Electrical power capper (CAP): the optional fast overwriter of Figure 2
 * and Section 6, extension (2).
 *
 * Thermal budgets tolerate bounded transient violations; an *electrical*
 * budget (a fuse) does not. The CAP therefore runs in parallel with the
 * EC on the fastest loop and clamps the P-state directly — bypassing the
 * nested r_ref channel — whenever measured power exceeds the electrical
 * limit, choosing the fastest state whose predicted power at the current
 * load stays under the limit. It releases its clamp (returns authority to
 * the EC) as soon as the EC's own choice is safe again.
 */

#ifndef NPS_CONTROLLERS_ELECTRICAL_CAPPER_H
#define NPS_CONTROLLERS_ELECTRICAL_CAPPER_H

#include <string>

#include "bus/control_link.h"
#include "controllers/server_manager.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace nps {
namespace controllers {

/**
 * The per-server electrical capper.
 */
class ElectricalCapper : public ViolationTracker
{
  public:
    /** Tunable parameters. */
    struct Params
    {
        unsigned period = 1;  //!< fastest loop in the architecture
        /**
         * Release hysteresis: the clamp is lifted only when the EC's
         * desired state is predicted to stay this fraction below the
         * limit.
         */
        double release_margin = 0.05;
    };

    /**
     * @param server The managed server.
     * @param limit_watts The hard electrical limit.
     * @param params Controller parameters.
     */
    ElectricalCapper(sim::Server &server, double limit_watts,
                     const Params &params);

    /** Diagnostic name, "CAP/<server id>". */
    const std::string &name() const { return name_; }

    /** Control interval. */
    unsigned period() const { return params_.period; }

    /** Per-tick violation bookkeeping (and outage edges). */
    void observe(size_t tick);

    /** One control step at @p tick. */
    void step(size_t tick);

    /** The electrical limit (watts). */
    double limit() const { return limit_; }

    /** True while the capper is overriding the EC's P-state choice. */
    bool clamping() const { return clamping_; }

    /// @name Fault injection
    /// @{

    /** Attach the fault oracle (null = fault-free, the default). */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Degradation counters accumulated by this capper. */
    const fault::DegradeStats &degradeStats() const { return degrade_; }

    /// @}

    /** Mirror clamp engage/release telemetry into @p log. */
    void attachControlLog(bus::ControlPlaneLog *log)
    {
        telemetry_.attachLog(log);
    }

    /**
     * Route the clamp telemetry link through @p transport (null
     * detaches); it is owned by (Cap, server id). Wiring time only.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner)
    {
        const int rank =
            owner ? owner(bus::OwnerLevel::Cap,
                          static_cast<long>(server_.id()))
                  : 0;
        telemetry_.setTransport(transport, rank);
    }

    /**
     * Register this capper's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize mutable controller state (checkpointing). */
    void
    saveState(ckpt::SectionWriter &w) const
    {
        ViolationTracker::saveState(w);
        telemetry_.saveState(w);
        w.putBool(clamping_);
        degrade_.saveState(w);
        w.putBool(was_down_);
    }

    /** Restore mutable controller state (checkpoint restore). */
    void
    loadState(ckpt::SectionReader &r)
    {
        ViolationTracker::loadState(r);
        telemetry_.loadState(r);
        clamping_ = r.getBool();
        degrade_.loadState(r);
        was_down_ = r.getBool();
    }

  private:
    /** Publish clamp transitions on the telemetry channel. */
    void publishClamp(bool clamping, size_t tick);

    sim::Server &server_;
    double limit_;
    Params params_;
    std::string name_;
    bus::TelemetryLink telemetry_;
    bool clamping_ = false;
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats degrade_;
    bool was_down_ = false; //!< edge detector for restarts

    obs::Counter *obs_engagements_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};

/**
 * The fleet's CAP kernel actor, named "CAP/fleet": slot i runs server
 * i's capper, which touches only its own server.
 */
using CapKernel = sim::KernelActor<sim::ObjectSlots<ElectricalCapper>>;

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_ELECTRICAL_CAPPER_H
