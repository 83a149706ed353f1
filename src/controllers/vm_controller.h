/**
 * @file
 * VM Controller (VMC): data-center-wide consolidation for average power.
 *
 * Every epoch the VMC solves the placement problem of Eq. (VMCs) with a
 * greedy bin-packing approximation: minimize estimated total power plus
 * migration cost, subject to server capacity and (in coordinated mode)
 * the local/enclosure/group power budgets shrunk by feedback-tuned
 * buffers. Idle machines are powered off when allowed.
 *
 * The two coordination-critical behaviors (Section 3.1):
 *  1. *real* utilization — measured VM utilization is translated to
 *     full-speed units so throttled servers are not misread;
 *  2. budget awareness — budgets act as packing constraints, and exposed
 *     budget-violation rates tune the buffers b_loc/b_enc/b_grp that damp
 *     consolidation aggressiveness (breaking the vicious cycle).
 * Both are switchable so the paper's ablations (Figure 9) can disable
 * them one at a time.
 */

#ifndef NPS_CONTROLLERS_VM_CONTROLLER_H
#define NPS_CONTROLLERS_VM_CONTROLLER_H

#include <memory>
#include <string>
#include <vector>

#include "bus/control_link.h"
#include "controllers/binpack.h"
#include "controllers/forecast.h"
#include "controllers/server_manager.h"
#include "fault/injector.h"
#include "sim/cluster.h"
#include "sim/engine.h"

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
 * The consolidation controller.
 */
class VmController : public sim::Actor
{
  public:
    /** Tunable parameters (defaults follow Figure 5). */
    struct Params
    {
        unsigned period = 500;          //!< epoch length T_vmc
        bool use_real_util = true;      //!< coordinated utilization input
        bool use_budget_constraints = true;  //!< Eqs. (3)-(5)
        bool use_violation_feedback = true;  //!< buffer tuning
        bool allow_power_off = true;    //!< turn empty machines off
        double capacity_target = 0.90;  //!< max packed load per server
        double util_limit = 0.75;       //!< EC target used in estimates
        double alpha_v = 0.10;          //!< virtualization overhead
        double alpha_m = 0.10;          //!< migration overhead weight
        size_t migration_ticks = 50;    //!< pre-copy duration
        double buffer_gain = 0.5;       //!< violation-rate -> buffer gain
        /**
         * The epoch length buffer_gain is calibrated for. The effective
         * per-epoch gain is buffer_gain * gain_ref_period / period, so
         * the feedback integrates violations at a fixed *rate per tick*:
         * running the VMC more frequently makes the feedback parameter
         * proportionally more aggressive (Section 5.4's explanation of
         * the time-constant sensitivity).
         */
        unsigned gain_ref_period = 500;
        double buffer_decay = 0.5;      //!< per-epoch buffer retention
        double buffer_max = 0.35;       //!< clamp on each buffer
        double buffer_init = 0.02;      //!< initial (pre-feedback) buffer
        /**
         * Adoption hysteresis: a new plan must beat the current one by
         * this fraction of estimated power (unless the current placement
         * has become infeasible), damping migration churn.
         */
        double adoption_margin = 0.02;
        /**
         * Demand-spread allowance: VMs are packed at mean + this many
         * standard deviations of their observed per-tick load, preserving
         * the statistical headroom the capping levels expect
         * (Section 3.1). The naive solo consolidator sets this to 0 and
         * packs on bare means.
         */
        double spread_sigma = 0.5;
        /**
         * Predictive packing: when true, each VM's epoch means feed a
         * per-VM forecaster and the packer sizes against the *next*
         * epoch's predicted demand (plus the spread allowance) instead
         * of the last epoch's average — anticipating ramps instead of
         * chasing them.
         */
        bool use_forecast = false;
        DemandForecaster::Params forecast;
    };

    /** Violation feeds for the feedback buffers (may be empty). */
    struct Feedback
    {
        std::vector<ViolationSource *> local;     //!< the SMs
        std::vector<ViolationSource *> enclosure; //!< the EMs
        ViolationSource *group = nullptr;         //!< the root GM
        /** Nested sub-GMs; their rates average into the group tier. */
        std::vector<ViolationSource *> subgroup;
    };

    /** Running statistics of the controller. */
    struct Stats
    {
        unsigned long epochs = 0;      //!< completed optimization epochs
        unsigned long migrations = 0;  //!< VM moves applied
        unsigned long adoptions = 0;   //!< epochs whose new plan was used
        unsigned long infeasible = 0;  //!< epochs with infeasible packing
        double last_est_power = 0.0;   //!< estimate of the adopted plan
    };

    /**
     * @param cluster  The managed cluster.
     * @param feedback Violation feeds (pass empty feeds when the
     *                 coordination interfaces are disabled).
     * @param params   Controller parameters.
     */
    VmController(sim::Cluster &cluster, Feedback feedback,
                 const Params &params);

    /// @name sim::Actor
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    void observe(size_t tick) override;
    void step(size_t tick) override;
    /// @}

    /** Active parameters. */
    const Params &params() const { return params_; }

    /** Running statistics. */
    const Stats &stats() const { return stats_; }

    /** Current feedback buffers (b_loc, b_enc, b_grp). */
    double bufferLoc() const { return b_loc_; }
    double bufferEnc() const { return b_enc_; }
    double bufferGrp() const { return b_grp_; }

    /// @name Fault injection
    /// @{

    /** Attach the fault oracle (null = fault-free, the default). */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Degradation counters accumulated by the VMC. */
    const fault::DegradeStats &degradeStats() const { return degrade_; }

    /// @}

    /**
     * Mirror the upstream violation channels into @p log. Each polled
     * report carries the trace id of the budget epoch its source last
     * received, completing the GM→EM→SM→VMC cascade.
     */
    void attachControlLog(bus::ControlPlaneLog *log);

    /**
     * Route the upstream violation channels through @p transport (null
     * detaches). A violation channel belongs to the *polled source's*
     * level — (Sm, i) for the local tier, (Em, i) for the enclosure
     * tier, (Gm, id) for the group tier — because the source's rates
     * are only observable in the process hosting that controller.
     * Wiring time only, before the engine runs.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner);

    /**
     * Register the VMC's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);

  private:
    /** Per-VM load estimate for the next epoch (updates forecasters). */
    std::vector<double> epochLoads();

    /** Update the buffers from the violation channels. */
    void updateBuffers(size_t tick);

    /** Build the candidate bins for the packer. */
    std::vector<PackBin> buildBins(size_t tick) const;

    /** Apply an adopted assignment: migrations and power state changes. */
    void applyAssignment(const std::vector<PackItem> &items,
                         const std::vector<sim::ServerId> &assignment,
                         size_t tick);

    /** Cold restart after an outage: forget epoch state and buffers. */
    void restartCold();

    sim::Cluster &cluster_;
    Feedback feedback_;
    /** Typed upstream channels wrapping the feeds, by tier. */
    std::vector<std::unique_ptr<bus::ViolationChannel>> loc_channels_;
    std::vector<std::unique_ptr<bus::ViolationChannel>> enc_channels_;
    std::vector<std::unique_ptr<bus::ViolationChannel>> grp_channels_;
    Params params_;
    std::string name_;
    Stats stats_;
    double b_loc_;
    double b_enc_;
    double b_grp_;
    std::vector<double> load_accum_;
    std::vector<double> load_sq_accum_;
    std::vector<DemandForecaster> forecasters_;
    unsigned long obs_ticks_ = 0;
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats degrade_;
    bool was_down_ = false; //!< edge detector for restarts

    obs::Counter *obs_epochs_ = nullptr;
    obs::Counter *obs_adoptions_ = nullptr;
    obs::Counter *obs_migrations_ = nullptr;
    obs::Counter *obs_infeasible_ = nullptr;
    obs::Counter *obs_poweroffs_ = nullptr;
    obs::Gauge *obs_b_loc_ = nullptr;
    obs::Gauge *obs_b_enc_ = nullptr;
    obs::Gauge *obs_b_grp_ = nullptr;
    obs::Gauge *obs_est_power_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_VM_CONTROLLER_H
