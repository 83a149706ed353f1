/**
 * @file
 * Greedy bin-packing placement optimizer for the VM controller.
 *
 * Approximates the paper's 0-1 integer program (Eq. VMCs): minimize total
 * estimated power plus migration cost, subject to per-server capacity
 * (Eq. 2) and local / enclosure / group power-budget constraints with
 * violation-feedback buffers (Eqs. 3-5). Items are placed best-fit
 * decreasing, preferring an item's current host among feasible open bins
 * to limit migrations.
 */

#ifndef NPS_CONTROLLERS_BINPACK_H
#define NPS_CONTROLLERS_BINPACK_H

#include <limits>
#include <vector>

#include "model/power_model.h"
#include "sim/vm.h"

namespace nps {
namespace controllers {

/** One VM to place. */
struct PackItem
{
    sim::VmId vm = 0;
    /** Load estimate in full-speed utilization units, overheads included. */
    double load = 0.0;
    /** The server currently hosting the VM. */
    sim::ServerId current = sim::kNoServer;
};

/** One candidate server (bin). */
struct PackBin
{
    sim::ServerId id = 0;
    /** Power model used for estimates (not owned, must outlive packing). */
    const model::PowerModel *power = nullptr;
    /** Enclosure index, or sim::Cluster::kNoEnclosure-equivalent. */
    unsigned enclosure = std::numeric_limits<unsigned>::max();
    /** True when the platform is currently on (no boot needed). */
    bool on = true;
    /** Maximum packed load (full-speed units), e.g. 0.75. */
    double capacity = 0.75;
    /** Buffered local power constraint; infinity() when unconstrained. */
    double power_cap = std::numeric_limits<double>::infinity();
    /** Estimated draw when this bin ends up unused (off or idle watts). */
    double unused_watts = 0.0;
    /** Apparent-utilization assumption for power estimates (EC target). */
    double util_limit = 0.75;
};

/** Group/enclosure-level constraints. */
struct PackConstraints
{
    /** Buffered per-enclosure caps, indexed by enclosure id; empty
     * disables enclosure constraints. */
    std::vector<double> enclosure_caps;
    /** Buffered group cap; infinity() disables it. */
    double group_cap = std::numeric_limits<double>::infinity();
};

/** Result of one packing run. */
struct PackResult
{
    /** Chosen server per item (parallel to the input item vector). */
    std::vector<sim::ServerId> assignment;
    /** Estimated total power of the placement, unused bins included. */
    double est_power = 0.0;
    /** Number of bins that received at least one item. */
    size_t bins_used = 0;
    /** False when some item could not be placed within the constraints
     * (it is then left on its current server). */
    bool feasible = true;
};

/**
 * Estimated power draw of a bin carrying @p load: the cheapest P-state
 * that keeps apparent utilization within the bin's util_limit (assuming
 * the EC will pick it), evaluated through the linear power model.
 */
double estimateBinPower(const PackBin &bin, double load);

/**
 * The largest packed load a bin can carry: the largest double y > 0
 * with y <= capacity + 1e-12 and estimateBinPower(bin, y) <=
 * power_cap + 1e-12 — the capacity and local power checks the packer
 * applies to a bin. Both checks are monotone in y for y > 0 (P0 is the
 * fastest state, frequencies strictly fall and the watts are
 * non-negative, so the estimate never falls as load rises), hence a
 * positive load passes both exactly when it is <= the result. Found by
 * bisection over the bit patterns of the positive doubles (at most 64
 * estimates). Returns 0 when no positive load passes and +infinity when
 * every load does.
 */
double maxPackedLoad(const PackBin &bin);

/** Power estimate and constraint compliance of a whole assignment. */
struct AssignmentEval
{
    /** Estimated total power, unused bins included. */
    double est_power = 0.0;
    /** True when every bin satisfies capacity and every power cap. */
    bool feasible = true;
};

/**
 * Evaluate an explicit assignment (one server id per item) over the given
 * bins with the same estimator the packer uses — used to price the
 * *current* placement and test whether it still satisfies the (buffered)
 * constraints. Items assigned to unknown bins are ignored.
 */
AssignmentEval evaluateAssignment(const std::vector<PackItem> &items,
                                  const std::vector<PackBin> &bins,
                                  const std::vector<sim::ServerId>
                                      &assignment,
                                  const PackConstraints &constraints);

/** Convenience wrapper returning only the power estimate. */
double estimateAssignmentPower(const std::vector<PackItem> &items,
                               const std::vector<PackBin> &bins,
                               const std::vector<sim::ServerId> &assignment);

/**
 * Best-fit-decreasing packing under the given constraints.
 *
 * Items are taken by descending load (stable: ties keep input order).
 * A placement on bin b is *tried* by checking, in order, capacity
 * (new load <= capacity + 1e-12), the local power cap (estimate <=
 * power_cap + 1e-12) and the enclosure/group ledger; it succeeds when
 * all three pass. Each item takes the first of:
 *  1. its current host, when that bin is already open;
 *  2. the open bin with the least slack capacity - load - item.load
 *     among those with slack >= -1e-12, the lowest index on ties;
 *  3. every other open bin, in bin-index order;
 *  4. its current host, when it is not open yet, then every closed bin
 *     in opening order: on servers by index, then off servers;
 *  5. none fits: the item stays on its current host regardless of the
 *     constraints and the result is marked infeasible.
 *
 * Steps 2 and 3 run on indexes rather than scans, and choose exactly
 * the bins the scans would: an ordered set of open bins keyed by
 * (capacity - load, index) for step 2, and for step 3 a max segment
 * tree over bin index holding maxPackedLoad(b) - load, which skips
 * every bin the capacity or power check would refuse, so only ledger
 * refusals cost a try. Step 4 starts past the already-opened prefix of
 * the opening order, and every try rejects a bin too small for the item
 * by the same limit, before any power estimate. Zero loads take the
 * same path: a zero-load item leaves a bin's load unchanged, a bin that
 * passes at a positive load holds at most its limit, and the limit
 * (>= 0) never refuses a load of 0, so the indexes still offer every
 * bin that passes and the full checks decide. Cost: O((VMs + ledger
 * refusals) * log bins), plus one bisection per distinct (model,
 * capacity, util_limit, power_cap), plus one compare per closed bin
 * step 4 walks: every closed bin for an item no bin accepts.
 *
 * Item loads must be finite and non-negative and bin capacities must
 * not be NaN (the indexes order bins by them); anything else panics.
 *
 * @param items       VMs to place (copied; sorted internally).
 * @param bins        Candidate servers.
 * @param constraints Enclosure/group caps.
 */
PackResult packGreedy(std::vector<PackItem> items,
                      const std::vector<PackBin> &bins,
                      const PackConstraints &constraints);

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_BINPACK_H
