/**
 * @file
 * The named deployment scenarios evaluated in the paper's Section 5:
 * configuration factories for the coordinated solution, the uncoordinated
 * strawman, the controller-isolation variants (Figure 8), and the
 * interface ablations (Figure 9).
 */

#ifndef NPS_CORE_SCENARIOS_H
#define NPS_CORE_SCENARIOS_H

#include <string>
#include <vector>

#include "core/config.h"

namespace nps {
namespace core {

/** The scenario catalogue. */
enum class Scenario
{
    Baseline,            //!< no power management at all
    Coordinated,         //!< the proposed architecture (Figure 2)
    Uncoordinated,       //!< five solo products side by side
    NoVmc,               //!< coordinated, VMC off (Figure 8)
    VmcOnly,             //!< only the VMC on (Figure 8)
    CoordApparentUtil,   //!< coordinated, VMC reads apparent util (Fig. 9)
    CoordNoFeedback,     //!< coordinated, violation feedback off (Fig. 9)
    CoordNoBudgetLimits, //!< coordinated, VMC ignores budgets (Fig. 9)
};

/** @return the paper's row label for a scenario. */
const char *scenarioName(Scenario s);

/** @return the scenarios of the Figure 9 ablation table, in row order. */
std::vector<Scenario> figure9Scenarios();

/** @return the configuration of a named scenario (Figure 5 baselines). */
CoordinationConfig scenarioConfig(Scenario s);

/** The fully coordinated baseline configuration. */
CoordinationConfig coordinatedConfig();

/** The uncoordinated (solo products) configuration. */
CoordinationConfig uncoordinatedConfig();

/** Everything off: the normalization baseline. */
CoordinationConfig baselineConfig();

/**
 * The fully coordinated stack tuned for synthetic fleets at 10k+ servers
 * (sim/fleetgen.h): VM migration off (the bin-packing consolidation pass
 * is one serial, cluster-global stage, O((VMs + ledger refusals) *
 * log servers) per epoch plus the closed bins walked for items no open
 * bin takes, that npsbench's consolidate-10k workload times on its own
 * — the scaling studies measure the per-tick control plane, not
 * placement search) and all observation layers off so the hot path is
 * what npsbench's fleet-100k workload times.
 */
CoordinationConfig fleetConfig();

/** @return @p base with machine power-off disabled (Section 5.4). */
CoordinationConfig withoutPowerOff(CoordinationConfig base);

/** @return @p base with different static budgets (Figure 10). */
CoordinationConfig withBudgets(CoordinationConfig base,
                               const sim::BudgetConfig &budgets);

/**
 * @return @p base with scaled control intervals (Section 5.4 time-constant
 * study). Values of 0 keep the Figure 5 default.
 */
CoordinationConfig withTimeConstants(CoordinationConfig base, unsigned t_ec,
                                     unsigned t_sm, unsigned t_em,
                                     unsigned t_gm, unsigned t_vmc);

/** @return @p base with one division policy at both the EM and GM. */
CoordinationConfig withPolicy(CoordinationConfig base,
                              controllers::DivisionPolicy policy);

} // namespace core
} // namespace nps

#endif // NPS_CORE_SCENARIOS_H
