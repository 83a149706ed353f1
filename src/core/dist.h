/**
 * @file
 * The distributed-run runtimes (docs/DISTRIBUTED.md): three entry
 * points that all materialize the same experiment from one DistPlan.
 *
 *   - runPlanSingle: the single-process oracle. Builds the plan's
 *     experiment with the distributed config switch armed and runs it
 *     inline — no sockets, no children. Its recorder CSV is the
 *     byte-exact reference a distributed run is diffed against.
 *   - runSupervisor: rank 0 of `npsim --distributed`. Hosts every
 *     level no [node] claims, listens on the plan's socket, spawns one
 *     npsnode child per [node], drives the per-tick barrier, executes
 *     [chaos] kills (and snapshot-based restarts), and writes the same
 *     outputs runPlanSingle would.
 *   - runNode: one npsnode child. Builds the identical replica,
 *     connects to the supervisor, and steps in lockstep behind the
 *     barrier; with --restore it resumes from a supervisor snapshot
 *     after a kill.
 *
 * All three build the full Coordinator from the plan — distribution is
 * deterministic lockstep replication, not state partitioning — which is
 * why the supervisor's CSV matches the oracle byte for byte and why a
 * desync (divergent replicas) is detectable frame by frame
 * (stream/socket_transport.h).
 */

#ifndef NPS_CORE_DIST_H
#define NPS_CORE_DIST_H

#include <string>

#include "core/dist_plan.h"

namespace nps {
namespace core {
namespace dist {

/**
 * Observability outputs of one process of a plan run — the flags npsim
 * forwards (--metrics/--cascade/--http). Anything empty is skipped.
 * The [obs] *section* of the plan controls what every replica computes
 * (it must be identical fleet-wide); this struct only controls what
 * this one process writes or serves.
 */
struct ObsOutputs
{
    std::string metrics_path; //!< end-of-run Prometheus export
    std::string cascade_path; //!< cascade-trace CSV (bus/control_log.h)
    std::string http;         //!< live endpoint override for this rank
    unsigned http_linger_ms = 0; //!< linger override (0 = plan's value)
};

/**
 * Run the plan's experiment in this process, no sockets involved.
 * @param plan        The validated plan.
 * @param record_path Recorder CSV output ("" skips the write; the
 *                    recorder still runs so the engine roster matches
 *                    distributed snapshots).
 * @param threads     Engine-thread override (0 keeps the plan's value).
 * @param obs         Observability outputs of this process.
 * @return process exit code.
 */
int runPlanSingle(const DistPlan &plan, const std::string &record_path,
                  unsigned threads = 0, const ObsOutputs &obs = {});

/**
 * Run the plan as a process tree: this process becomes rank 0.
 * @param plan        The validated plan.
 * @param plan_path   Path of the plan file (re-parsed by each child).
 * @param record_path Recorder CSV output ("" skips the write).
 * @param threads     Engine-thread override for rank 0 (0 keeps the
 *                    plan's value; children always use the plan's).
 * @param obs         Observability outputs of rank 0. With [obs] in
 *                    the plan, /metrics and the metrics export carry
 *                    the merged fleet view (rank-labelled series).
 * @return process exit code.
 */
int runSupervisor(const DistPlan &plan, const std::string &plan_path,
                  const std::string &record_path, unsigned threads = 0,
                  const ObsOutputs &obs = {});

/**
 * Run one child replica (the npsnode main).
 * @param plan         The validated plan.
 * @param rank         This child's rank (1-based index into plan.nodes).
 * @param restore_path Supervisor snapshot to resume from ("" starts
 *                     fresh at tick 0).
 * @param obs          Observability outputs of this child (its live
 *                     endpoint defaults to the plan's [obs] http with
 *                     %r expanded to the rank).
 * @return process exit code.
 */
int runNode(const DistPlan &plan, int rank,
            const std::string &restore_path, const ObsOutputs &obs = {});

} // namespace dist
} // namespace core
} // namespace nps

#endif // NPS_CORE_DIST_H
