/**
 * @file
 * Coordinator: the public entry point of the library.
 *
 * Builds the control-plane architecture over a cluster — per-server ECs
 * and SMs (nested), EMs per enclosure, a tree of GMs shaped by the
 * topology (one flat GM by default, exactly Figure 2), the VMC, and
 * optional electrical cappers — wiring every coordination channel
 * described in Figure 4 through typed bus links:
 *
 *   EC  : receives r_ref over the SM's reference link;
 *   SM  : receives budget grants from the EM/GM and exposes its
 *         violation history to the VMC;
 *   EM  : receives grants from its GM, subdivides over per-blade budget
 *         links, and exposes violations to the VMC;
 *   GM  : receives grants from a parent GM (when nested), subdivides
 *         over GM/EM/SM budget links, and exposes violations;
 *   VMC : consumes real utilization, budget constraints and violation
 *         feedback over per-source violation channels.
 *
 * When the topology carries a management tree (sim::Topology::tree) the
 * builder realizes one GM per tree node: the root keeps the paper's cap
 * CAP_GRP, inner nodes cap their own scope, and grants cascade down
 * GM→GM links with the same min(static, grant) rule as every other
 * level. The same constructor also realizes the *uncoordinated*
 * deployment (all five solutions from different vendors side by side)
 * when the config's coordination switch is off.
 */

#ifndef NPS_CORE_COORDINATOR_H
#define NPS_CORE_COORDINATOR_H

#include <memory>
#include <utility>
#include <vector>

#include "bus/control_log.h"
#include "core/config.h"
#include "fault/injector.h"
#include "obs/observability.h"
#include "sim/engine.h"

namespace nps {
namespace core {

/**
 * Owns a cluster, its controller stack, metrics, and the engine.
 */
class Coordinator
{
  public:
    /**
     * Build the architecture over a homogeneous cluster.
     *
     * @param config  Deployment configuration (resolved internally).
     * @param topo    Cluster shape.
     * @param spec    Machine spec used for every server.
     * @param traces  One workload per VM.
     * @param keep_series Retain per-tick series in the metrics collector.
     */
    Coordinator(const CoordinationConfig &config,
                const sim::Topology &topo, const model::MachineSpec &spec,
                const std::vector<trace::UtilizationTrace> &traces,
                bool keep_series = false);

    /** Heterogeneous variant: one spec per server. */
    Coordinator(const CoordinationConfig &config,
                const sim::Topology &topo,
                const std::vector<std::shared_ptr<const model::MachineSpec>>
                    &specs,
                const std::vector<trace::UtilizationTrace> &traces,
                bool keep_series = false);

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Advance the simulation by @p ticks.
     * @return ticks actually simulated — fewer than @p ticks only when
     *         a TickSource (an online telemetry feed) ended the run.
     */
    size_t run(size_t ticks);

    /** The resolved configuration in force. */
    const CoordinationConfig &config() const { return config_; }

    /** The managed cluster. */
    sim::Cluster &cluster() { return *cluster_; }
    const sim::Cluster &cluster() const { return *cluster_; }

    /**
     * Aggregated metrics so far, including the degradation counters
     * gathered from every controller.
     */
    sim::MetricsSummary summary() const;

    /**
     * The fault injector, or nullptr when the config schedules no faults.
     * Built from config.faults: the inline script plus the seeded random
     * campaign, materialized once at construction.
     */
    const fault::FaultInjector *faultInjector() const
    {
        return injector_.get();
    }

    /** Degradation counters summed across all controllers. */
    fault::DegradeStats degradeStats() const;

    /**
     * Attach the stream-liveness oracle of an online run (src/stream/)
     * to every server-targeting budget link in the hierarchy: grants to
     * a server whose telemetry stream is silent are then dropped exactly
     * like an injected link-drop fault, with the same DegradeStats and
     * the same lease-expiry fallback downstream. Null detaches; batch
     * runs never call this.
     */
    void attachStreamHealth(const fault::StreamHealth *health);

    /**
     * Route every control link of the hierarchy through @p transport
     * (null detaches, restoring the inline in-process fast path). The
     * attach order — SMs, EMs, GMs, cappers, memory managers, VMC — is
     * the canonical wire-id assignment order: every process of a
     * distributed run walks it identically, so link ids and the wiring
     * digest agree across ranks (docs/DISTRIBUTED.md). @p owner maps
     * each link's owning (level, id) to its hosting process rank;
     * bus::localOwner() pins everything to rank 0. Wiring time only,
     * before the engine runs.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner);

    /** The metrics collector (for series access). */
    const sim::MetricsCollector &metrics() const { return metrics_; }

    /** The VMC, or nullptr when disabled. */
    const controllers::VmController *vmc() const { return vmc_.get(); }

    /**
     * The per-server ECs (empty when disabled), in server-id order: views
     * of one slot each of the fleet store the "EC/fleet" kernel actor
     * runs. The SMs below are built the same way ("SM/fleet").
     */
    const std::vector<std::shared_ptr<controllers::EfficiencyController>> &
    ecs() const
    {
        return ecs_;
    }

    /** The per-server SMs (empty when disabled), in server-id order. */
    const std::vector<std::shared_ptr<controllers::ServerManager>> &
    sms() const
    {
        return sms_;
    }

    /** The EMs (empty when disabled), in enclosure order. */
    const std::vector<std::shared_ptr<controllers::EnclosureManager>> &
    ems() const
    {
        return ems_;
    }

    /** The root GM, or nullptr when disabled. */
    const controllers::GroupManager *gm() const
    {
        return gms_.empty() ? nullptr : gms_.front().get();
    }

    /**
     * Every GM in pre-order (root first, then subtrees in topology
     * order); exactly one entry for the default flat topology.
     */
    const std::vector<std::shared_ptr<controllers::GroupManager>> &
    gms() const
    {
        return gms_;
    }

    /**
     * The control-plane event log, or nullptr unless the config set
     * log_control_plane or observability.cascade. Its cascade view
     * (writeCascadeCsv) holds every stamped budget/violation hop, so a
     * run's GM→EM→SM→VMC cascades can be reconstructed offline with
     * per-hop latency (docs/OBSERVABILITY.md). With only the cascade
     * enabled the log is traced-only: it holds just those hops.
     */
    const bus::ControlPlaneLog *controlLog() const
    {
        return control_log_.get();
    }

    /** The electrical cappers (empty when disabled), in server order. */
    const std::vector<std::shared_ptr<controllers::ElectricalCapper>> &
    caps() const
    {
        return caps_;
    }

    /** The memory managers (empty when disabled), in server order. */
    const std::vector<std::shared_ptr<controllers::MemoryManager>> &
    mems() const
    {
        return mems_;
    }

    /** The engine (for adding custom actors before running). */
    sim::Engine &engine() { return *engine_; }

    /**
     * The observability bundle, or nullptr when config.observability
     * enables no instrument. Everything in it is observation-only: the
     * simulation results are bit-identical with it on or off, and the
     * metrics export and merged trace are byte-identical across thread
     * counts (docs/OBSERVABILITY.md).
     */
    const obs::Observability *observability() const { return obs_.get(); }
    obs::Observability *observability() { return obs_.get(); }

    /** The metrics registry, or nullptr when metrics are off. */
    const obs::MetricsRegistry *metricsRegistry() const
    {
        return obs_ ? obs_->metrics() : nullptr;
    }

    /** The decision-trace sink, or nullptr when tracing is off. */
    const obs::TraceSink *traceSink() const
    {
        return obs_ ? obs_->trace() : nullptr;
    }

    /** The engine profiler, or nullptr when profiling is off. */
    const obs::EngineProfiler *profiler() const
    {
        return obs_ ? obs_->profiler() : nullptr;
    }

    /// @name Checkpointing (src/core/checkpoint.cpp)
    /// @{

    /**
     * Serialize the complete mutable simulation state into @p snap: the
     * engine clock and roster, the cluster (placement, server/VM state),
     * metrics, every controller's internal state (integrators, leases,
     * grants, links), the control-plane log, and the obs instruments.
     * Structure and immutable inputs (config, topology, traces, the
     * FaultInjector) are NOT serialized — restore rebuilds them from the
     * same config and overlays this state (docs/CHECKPOINTING.md).
     */
    void saveState(ckpt::SnapshotWriter &snap) const;

    /**
     * Restore state saved by saveState() into this freshly-built
     * Coordinator. The Coordinator must have been constructed from the
     * same config and topology; mismatches are fatal with an actionable
     * message. After restore, run() continues byte-identically to the
     * original uninterrupted run at any thread count.
     */
    void loadState(const ckpt::SnapshotReader &snap);

    /// @}

  private:
    void buildControllers();
    void buildFaultInjector();

    /// @name Per-level builders (split of buildControllers)
    /// @{

    /** ECs + SMs + electrical cappers + memory managers, per server. */
    void buildServerLevel();

    /** EMs over the blade SMs, per enclosure. */
    void buildEnclosureLevel();

    /** The GM level: one flat GM, or the topology's whole GM tree. */
    void buildGroupManagers();

    /** The VMC over the violation feeds of every capping level. */
    void buildVmController();

    /// @}

    /**
     * Recursively realize @p node as a GM (children first); the GM is
     * stored at its pre-order slot in gms_ and returned.
     */
    controllers::GroupManager *buildGroupNode(const sim::TopologyNode &node,
                                              long &next_id);

    void attachControlLog();
    void attachObservability();

  public:
    /**
     * Refresh the run-summary gauges from the collector. run() calls it
     * after every batch; the live plane calls it mid-run so scrapes see
     * current aggregates. Deterministic given the tick it runs at.
     */
    void updateRunGauges();

  private:

    CoordinationConfig config_;
    sim::Topology topo_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<sim::Cluster> cluster_;
    sim::MetricsCollector metrics_;
    std::unique_ptr<sim::Engine> engine_;
    std::unique_ptr<bus::ControlPlaneLog> control_log_;
    /** The fleet's EC state (null when ECs are disabled). */
    std::shared_ptr<controllers::EcStateSoA> ec_store_;
    std::vector<std::shared_ptr<controllers::EfficiencyController>> ecs_;
    std::vector<std::shared_ptr<controllers::ServerManager>> sms_;
    std::vector<std::shared_ptr<controllers::EnclosureManager>> ems_;
    /** All GMs in pre-order; gms_[0] is the root. */
    std::vector<std::shared_ptr<controllers::GroupManager>> gms_;
    std::shared_ptr<controllers::VmController> vmc_;
    std::vector<std::shared_ptr<controllers::ElectricalCapper>> caps_;
    std::vector<std::shared_ptr<controllers::MemoryManager>> mems_;

    std::unique_ptr<obs::Observability> obs_;
    /** Run-summary gauges (null when metrics are off). */
    obs::Gauge *obs_ticks_ = nullptr;
    obs::Gauge *obs_energy_ = nullptr;
    obs::Gauge *obs_mean_power_ = nullptr;
    obs::Gauge *obs_peak_power_ = nullptr;
    obs::Gauge *obs_viol_sm_ = nullptr;
    obs::Gauge *obs_viol_em_ = nullptr;
    obs::Gauge *obs_viol_gm_ = nullptr;
    obs::Gauge *obs_perf_loss_ = nullptr;
    obs::Gauge *obs_trace_dropped_ = nullptr;
    /** (gauge, DegradeStats field) pairs mirrored after each run. */
    std::vector<std::pair<obs::Gauge *,
                          unsigned long fault::DegradeStats::*>>
        obs_degrade_;
};

} // namespace core
} // namespace nps

#endif // NPS_CORE_COORDINATOR_H
