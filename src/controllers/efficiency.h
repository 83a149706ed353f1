/**
 * @file
 * Efficiency Controller (EC): per-server average-power tracking.
 *
 * The innermost loop of the architecture (Section 3.1). Treats the server
 * as a container to be used at a target fraction r_ref of its capacity:
 * utilization below target means the container can shrink, so the EC
 * lowers the clock frequency (deeper P-state); utilization above target
 * grows it again. The integral control law (Figure 6, Eq. EC) is
 *
 *     f(k) = f(k-1) - lambda * (f_C(k-1) / r_ref) * (r_ref - r(k-1))
 *
 * with the self-tuning gain lambda * f_C / r_ref and global stability for
 * 0 < lambda < 1 / r_ref (Appendix A, Proposition A).
 *
 * Coordination: the SM actuates this loop solely through its r_ref.
 *
 * Layout (docs/PERFORMANCE.md): the loop state of a whole fleet lives in
 * one struct-of-arrays store, EcStateSoA, and runs as one kernel actor
 * (sim::KernelActor) that walks a slot range per shard — the pattern
 * ControlPULP uses for its per-core PID loops. EfficiencyController is a
 * thin view of one slot; a standalone-built controller owns a one-slot
 * store and steps it through the very same kernel.
 */

#ifndef NPS_CONTROLLERS_EFFICIENCY_H
#define NPS_CONTROLLERS_EFFICIENCY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.h"
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
 * Objective variants of the EC (Section 6, extension 6).
 */
enum class EcObjective
{
    /** Track the utilization reference (the paper's base design). */
    UtilizationTracking,
    /**
     * Minimize an energy-delay product estimate instead: pick the P-state
     * minimizing power / relative-speed for the recent demand, subject to
     * not saturating beyond the reference.
     */
    EnergyDelay,
};

/** Tunable EC parameters (defaults follow Figure 5). */
struct EcParams
{
    double lambda = 0.8;     //!< scaling parameter of the gain
    double r_ref = 0.75;     //!< initial utilization target
    unsigned period = 1;     //!< control interval T_ec
    EcObjective objective = EcObjective::UtilizationTracking;
    /**
     * When true (default) the continuous frequency is quantized to the
     * slowest P-state that still covers it; when false, to the nearest
     * P-state.
     */
    bool quantize_up = true;
};

/**
 * The EC loop state of a set of servers, one array per field (the
 * sim::ServerStateSoA pattern). Slot i runs Eq. EC for server[i]; a
 * cluster-wide store has slot == server id. All slots share one
 * parameter block and one fault oracle.
 */
struct EcStateSoA
{
    /** Per-slot observability cells; null when not registered. */
    struct Obs
    {
        obs::Counter *pstate_changes = nullptr;
        obs::Counter *restarts = nullptr;
        obs::Counter *stuck = nullptr;
        obs::TraceChannel *trace = nullptr;
    };

    /** fatal() when params.r_ref is outside (0, 1). */
    explicit EcStateSoA(const EcParams &params);

    /**
     * Append a slot managing @p server (which must outlive the store);
     * warns when lambda violates the stability bound. Wiring time only.
     * @return the new slot.
     */
    uint32_t add(sim::Server &server);

    /** Number of slots. */
    size_t size() const { return server.size(); }

    /** Control interval of every slot. */
    unsigned period() const { return params.period; }

    /** The EC observes nothing between steps. */
    void observe(size_t tick, size_t lo, size_t hi)
    {
        (void)tick;
        (void)lo;
        (void)hi;
    }

    /** The kernel: one control step of slots [lo, hi) at @p tick. */
    void step(size_t tick, size_t lo, size_t hi);

    /** Register slot @p slot's metrics and trace channel as @p name. */
    void attachObs(uint32_t slot, const std::string &name,
                   obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize slot @p slot (the per-object byte layout). */
    void saveState(uint32_t slot, ckpt::SectionWriter &w) const;

    /** Restore slot @p slot. */
    void loadState(uint32_t slot, ckpt::SectionReader &r);

    EcParams params;
    const fault::FaultInjector *faults = nullptr; //!< null = fault-free

    /// @name Per-slot state
    /// @{
    std::vector<sim::Server *> server;
    std::vector<double> r_ref;            //!< the reference the SM drives
    std::vector<double> last_measurement; //!< sensed utilization
    std::vector<double> last_error;       //!< r_ref - measurement
    std::vector<uint64_t> steps;          //!< completed loop steps
    std::vector<double> freq;             //!< continuous frequency, MHz
    std::vector<fault::DegradeStats> degrade;
    std::vector<uint64_t> cur_tick;       //!< tick of the last live step
    std::vector<double> held_util;        //!< last healthy sensor reading
    std::vector<uint8_t> was_down;        //!< edge detector for restarts
    std::vector<Obs> obs;                 //!< empty until attachObs()
    /// @}

  private:
    void stepSlot(size_t i, size_t tick, Obs *o);
    void stepEnergyDelay(size_t i, size_t tick, Obs *o);
    double sensedUtil(size_t i, size_t tick, double raw);
    void actuate(size_t i, double value, Obs *o);
    void restartCold(size_t i);
};

/** The fleet's EC kernel actor, named "EC/fleet". */
using EcKernel = sim::KernelActor<EcStateSoA>;

/**
 * The per-server efficiency controller: a view of one EcStateSoA slot.
 */
class EfficiencyController
{
  public:
    /** Tunable parameters (defaults follow Figure 5). */
    using Params = EcParams;

    /**
     * Standalone controller over a private one-slot store.
     * @param server The managed server; must outlive the controller.
     * @param params Controller parameters. fatal() when r_ref is outside
     *               (0, 1); warns when lambda violates the global
     *               stability bound for it.
     */
    EfficiencyController(sim::Server &server, const Params &params);

    /** View of slot @p slot of a shared (fleet) store. */
    EfficiencyController(std::shared_ptr<EcStateSoA> store, uint32_t slot);

    /** Diagnostic name, "EC/<server id>". */
    const std::string &name() const { return name_; }

    /** Control interval T_ec. */
    unsigned period() const { return store_->period(); }

    /** One control step of this slot at @p tick. */
    void step(size_t tick) { store_->step(tick, slot_, slot_ + 1); }

    /// @name Reference channel (Figure 3)
    /// @{

    /** Set the utilization target r_ref (the SM's actuator). */
    void setReference(double r_ref) { store_->r_ref[slot_] = r_ref; }

    /** @return the current utilization target. */
    double reference() const { return store_->r_ref[slot_]; }

    /// @}

    /** The continuous (pre-quantization) frequency state, MHz. */
    double continuousFreq() const { return store_->freq[slot_]; }

    /** The managed server. */
    const sim::Server &server() const { return *store_->server[slot_]; }

    /** Active parameters. */
    const Params &params() const { return store_->params; }

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

    /** Degradation counters accumulated by this EC. */
    const fault::DegradeStats &degradeStats() const
    {
        return store_->degrade[slot_];
    }

    /// @}

    /**
     * Register this EC's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace)
    {
        store_->attachObs(slot_, name_, metrics, trace);
    }

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const
    {
        store_->saveState(slot_, w);
    }

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r) { store_->loadState(slot_, r); }

    /** The backing store and slot (the SM's r_ref link writes here). */
    EcStateSoA &store() const { return *store_; }
    uint32_t slot() const { return slot_; }

  private:
    std::shared_ptr<EcStateSoA> store_;
    uint32_t slot_;
    std::string name_;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_EFFICIENCY_H
