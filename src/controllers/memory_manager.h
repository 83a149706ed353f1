/**
 * @file
 * Memory Manager (MM): the multi-actuator extension of Section 6 (3) —
 * "multiple actuators at a given level (e.g., CPU, memory, and disk
 * power controllers interacting at the platform level)".
 *
 * A second per-server actuator next to the EC's P-state knob: engages
 * the platform's memory low-power mode (a fixed power trim at a small
 * capacity cost) whenever utilization has stayed comfortably below a
 * threshold, and releases it with hysteresis when load returns. The
 * interaction with the EC needs no explicit protocol: the MM's capacity
 * cost shows up in the utilization the EC measures, so the nested loops
 * compose the same way the SM/EC pair does — the multi-input,
 * single-metric special case of a MIMO design.
 */

#ifndef NPS_CONTROLLERS_MEMORY_MANAGER_H
#define NPS_CONTROLLERS_MEMORY_MANAGER_H

#include <string>

#include "bus/control_link.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace nps {
namespace obs {
class Counter;
class MetricsRegistry;
class TraceChannel;
class TraceSink;
} // namespace obs

namespace controllers {

/**
 * The per-server memory low-power controller.
 */
class MemoryManager
{
  public:
    /** Tunable parameters. */
    struct Params
    {
        unsigned period = 10;       //!< control interval
        /** Engage when apparent utilization stays below this. */
        double engage_below = 0.55;
        /** Release when apparent utilization rises above this. */
        double release_above = 0.80;
        /** Consecutive qualifying steps required before engaging. */
        unsigned engage_patience = 3;
    };

    /** @param server the managed server; must outlive the controller. */
    MemoryManager(sim::Server &server, const Params &params);

    /** Diagnostic name, "MM/<server id>". */
    const std::string &name() const { return name_; }

    /** Control interval. */
    unsigned period() const { return params_.period; }

    /** The MM observes nothing between steps. */
    void observe(size_t tick) { (void)tick; }

    /** One control step at @p tick. */
    void step(size_t tick);

    /** Active parameters. */
    const Params &params() const { return params_; }

    /** Number of engage transitions performed. */
    unsigned long engagements() const { return engagements_; }

    /** Mirror engage/release telemetry into @p log. */
    void attachControlLog(bus::ControlPlaneLog *log)
    {
        telemetry_.attachLog(log);
    }

    /**
     * Route the engage/release telemetry link through @p transport
     * (null detaches); it is owned by (Mem, server id). Wiring time
     * only.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner)
    {
        const int rank =
            owner ? owner(bus::OwnerLevel::Mem,
                          static_cast<long>(server_.id()))
                  : 0;
        telemetry_.setTransport(transport, rank);
    }

    /**
     * Register this MM's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize mutable controller state (checkpointing). */
    void
    saveState(ckpt::SectionWriter &w) const
    {
        telemetry_.saveState(w);
        w.putU32(quiet_steps_);
        w.putU64(engagements_);
    }

    /** Restore mutable controller state (checkpoint restore). */
    void
    loadState(ckpt::SectionReader &r)
    {
        telemetry_.loadState(r);
        quiet_steps_ = r.getU32();
        engagements_ = static_cast<unsigned long>(r.getU64());
    }

  private:
    /** Publish a mode transition on the telemetry channel. */
    void setMode(bool low, size_t tick);

    sim::Server &server_;
    Params params_;
    std::string name_;
    bus::TelemetryLink telemetry_;
    unsigned quiet_steps_ = 0;
    unsigned long engagements_ = 0;

    obs::Counter *obs_engagements_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};

/**
 * The fleet's MM kernel actor, named "MM/fleet": slot i runs server
 * i's memory manager, which touches only its own server.
 */
using MmKernel = sim::KernelActor<sim::ObjectSlots<MemoryManager>>;

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_MEMORY_MANAGER_H
