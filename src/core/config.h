/**
 * @file
 * CoordinationConfig: every tunable of the architecture in one place —
 * the programmatic rendering of the paper's Figure 5 parameter table.
 */

#ifndef NPS_CORE_CONFIG_H
#define NPS_CORE_CONFIG_H

#include <string>

#include "controllers/efficiency.h"
#include "controllers/electrical_capper.h"
#include "controllers/enclosure_manager.h"
#include "controllers/group_manager.h"
#include "controllers/memory_manager.h"
#include "controllers/server_manager.h"
#include "controllers/vm_controller.h"
#include "fault/fault.h"
#include "obs/observability.h"
#include "sim/cluster.h"
#include "stream/stream_config.h"

namespace nps {
namespace core {

/**
 * Complete configuration of a deployment: which controllers exist, how
 * they are wired (coordinated or not), and all their parameters.
 */
struct CoordinationConfig
{
    /// @name Deployment switches
    /// @{
    bool enable_ec = true;   //!< per-server efficiency controllers
    bool enable_sm = true;   //!< per-server power cappers
    bool enable_em = true;   //!< enclosure managers
    bool enable_gm = true;   //!< the group manager
    bool enable_vmc = true;  //!< the consolidation controller
    bool enable_cap = false; //!< optional electrical cappers (Section 6)
    bool enable_mem = false; //!< optional memory managers (Section 6 MIMO)
    /**
     * Mirror every control-plane message (budget grants, violation
     * reports, r_ref references, actuation telemetry) into an event log
     * readable after the run (Coordinator::controlLog()). Observation
     * only: the simulation arithmetic is bit-identical either way.
     */
    bool log_control_plane = false;
    /// @}

    /**
     * Master coordination switch. When false, every controller runs in
     * its solo-commercial configuration: the SM actuates P-states
     * directly (fighting the EC), the GM pushes per-server budgets
     * around the EMs, and the VMC reads apparent utilization with no
     * budget awareness.
     */
    bool coordinated = true;

    /// @name Per-controller parameters (Figure 5 baselines)
    /// @{
    controllers::EfficiencyController::Params ec;
    controllers::ServerManager::Params sm;
    controllers::EnclosureManager::Params em;
    controllers::GroupManager::Params gm;
    controllers::VmController::Params vmc;
    controllers::ElectricalCapper::Params cap;
    controllers::MemoryManager::Params mem;
    /// @}

    /** Electrical limit as a fraction of each server's max power. */
    double cap_limit_frac = 0.97;

    /** Static thermal budget configuration (the 20-15-10 of Figure 5). */
    sim::BudgetConfig budgets = sim::BudgetConfig::paper201510();

    /** Virtualization overhead fraction alpha_V. */
    double alpha_v = 0.10;

    /** Migration overhead fraction alpha_mu. */
    double alpha_m = 0.10;

    /**
     * Worker threads for the tick engine: 0 picks the hardware
     * concurrency, 1 runs one shard on the engine thread. Purely a
     * throughput knob — simulation results are bit-identical for every
     * value (docs/PARALLELISM.md).
     */
    unsigned threads = 0;

    /**
     * Fault-injection setup (docs/FAULTS.md). Disabled by default; when
     * disabled the run is bit-identical to a configuration without the
     * fault layer at all.
     */
    fault::FaultSetup faults;

    /**
     * Observability setup (docs/OBSERVABILITY.md): metrics registry,
     * decision traces, and the engine profiler. All off by default;
     * every instrument is observation-only, so the simulation arithmetic
     * is bit-identical whether they are on or off.
     */
    obs::ObsConfig observability;

    /**
     * Online-telemetry setup (docs/STREAMING.md): whether the run is
     * driven by a live feed (`npsim --serve`) and the late/missing-
     * sample policy. Disabled by default; a batch run is bit-identical
     * to a build without the stream layer at all.
     */
    stream::StreamConfig stream;

    /**
     * Distributed control plane (docs/DISTRIBUTED.md): set by the plan
     * runtime — both for `npsim --distributed` runs *and* for the
     * single-process oracle (`npsim --plan`) they are diffed against —
     * never from an INI file. Arms the same budget leases a fault
     * campaign would, so a killed peer process degrades through the
     * lease/fallback ladder; with every lease refreshed the armed run
     * stays bit-identical to an unarmed one.
     */
    bool distributed = false;

    /**
     * Validate invariants and resolve derived settings: propagates the
     * coordination switch and the overhead constants into the controller
     * parameter blocks, and downgrades the SM to DirectPState when no EC
     * exists to nest on. @return the resolved copy.
     */
    CoordinationConfig resolved() const;
};

} // namespace core
} // namespace nps

#endif // NPS_CORE_CONFIG_H
