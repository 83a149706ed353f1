/**
 * @file
 * Struct-of-arrays backing stores for the per-server and per-VM dynamic
 * state (docs/PERFORMANCE.md).
 *
 * At fleet scale the per-tick hot path — Cluster::evaluateTick, the
 * metrics pass, and every per-server kernel's sensor reads — is
 * dominated by memory traffic, not arithmetic. Keeping the mutable
 * scalars inside the Server / VirtualMachine objects interleaves the
 * few hot doubles with cold construction data (spec pointers, hosted-VM
 * lists, trace metadata), so a 100k-server sweep touches a cache line
 * per server and uses a fraction of it. These stores pull the dynamic
 * state out into one contiguous array per field; Server and
 * VirtualMachine stay the API as thin views (store pointer + slot), so
 * controllers, checkpointing, and the golden scenarios are untouched.
 *
 * Ownership contract: a Cluster builds one shared store per kind and
 * hands every element a slot equal to its id. Objects constructed
 * standalone (unit tests, examples) own a private single-slot store —
 * the view code is identical either way. Cluster-owned elements are
 * never reseated: the aggregation pass iterates the server arrays and
 * the VMC's observe iterates the VM arrays directly, which is what
 * makes those folds cache-friendly. To swap a cluster VM's trace, use
 * Cluster::replaceVm, which keeps the VM in its slot.
 *
 * Derived state: PlacementColumns is the plant kernel's copy of the
 * placement (a host->VM CSR in Server::vms() order, each hosted VM's
 * trace pointer and length, a demand column, and the work-balanced
 * shard cuts). The Cluster owns it and builds it at the first
 * evaluateTick, not at construction. Cluster::placeVm and migrateVm
 * (a VM changed host), replaceVm (a VM's trace changed) and loadState
 * invalidate it, and the next evaluateTick rebuilds it; a different
 * shard count recuts it. It is never checkpointed: a restored cluster
 * rebuilds it from the restored placement.
 */

#ifndef NPS_SIM_SOA_H
#define NPS_SIM_SOA_H

#include <cstdint>
#include <vector>

namespace nps {
namespace sim {

/**
 * Dynamic per-server state, one contiguous array per field, indexed by
 * server slot (== ServerId for cluster-owned servers).
 */
struct ServerStateSoA
{
    /// @name Platform / actuator state
    /// @{
    std::vector<uint8_t> power_state;    //!< PlatformPower as raw byte
    std::vector<uint64_t> boot_done_tick;
    std::vector<uint8_t> ever_off;
    std::vector<uint32_t> pstate;
    std::vector<uint8_t> mem_low_power;
    /// @}
    /// @name Last-tick sensors (the ServerTick fields, one array each)
    /// @{
    std::vector<double> power;
    std::vector<double> apparent_util;
    std::vector<double> real_util;
    std::vector<double> demanded_useful;
    std::vector<double> served_useful;
    /// @}

    /** Number of slots. */
    size_t size() const { return pstate.size(); }

    /** Resize every array to @p n slots, new slots default-initialized
     * (on, P0, zeroed sensors) — the state of a freshly built Server. */
    void
    resize(size_t n)
    {
        power_state.resize(n, 0); // PlatformPower::On
        boot_done_tick.resize(n, 0);
        ever_off.resize(n, 0);
        pstate.resize(n, 0);
        mem_low_power.resize(n, 0);
        power.resize(n, 0.0);
        apparent_util.resize(n, 0.0);
        real_util.resize(n, 0.0);
        demanded_useful.resize(n, 0.0);
        served_useful.resize(n, 0.0);
    }
};

/**
 * Dynamic per-VM state, indexed by VM slot (== VmId for cluster-owned
 * VMs).
 */
struct VmStateSoA
{
    std::vector<uint64_t> migrating_until;
    std::vector<double> last_demanded;
    std::vector<double> last_served;
    std::vector<double> last_apparent_share;
    /**
     * Externally staged demand, one slot per VM, read by
     * VirtualMachine::demandAt instead of the trace when
     * external_demand is set (the online engine, src/stream/: a
     * telemetry feed stages every VM's demand before each tick).
     * Deliberately not checkpointed — the feed re-stages before the
     * first post-restore tick.
     */
    std::vector<double> staged_demand;
    /** When nonzero demandAt serves staged_demand, not the trace. */
    uint8_t external_demand = 0;

    /** Number of slots. */
    size_t size() const { return migrating_until.size(); }

    /** Resize every array to @p n slots, new slots zeroed. */
    void
    resize(size_t n)
    {
        migrating_until.resize(n, 0);
        last_demanded.resize(n, 0.0);
        last_served.resize(n, 0.0);
        last_apparent_share.resize(n, 0.0);
        staged_demand.resize(n, 0.0);
    }
};

/**
 * The plant kernel's placement columns (Cluster::evaluateTick), derived
 * from the cluster's placement and VM traces; see the ownership
 * contract above for what invalidates them.
 */
struct PlacementColumns
{
    /**
     * CSR offsets, one per server plus one: server i hosts the entries
     * [host_begin[i], host_begin[i + 1]) of the per-entry columns.
     */
    std::vector<uint32_t> host_begin;
    /// @name Per CSR entry (servers in id order, each host's VMs in
    /// Server::vms() order, so every per-server sum keeps its order)
    /// @{
    std::vector<uint32_t> vm;          //!< the hosted VM's id
    /** Its trace samples, kept alive by the VM's trace; replaceVm
     * marks the columns stale before the old samples can go. */
    std::vector<const double *> trace;
    std::vector<size_t> trace_len;     //!< its trace length
    /** This tick's demand, read once per VM per tick; each shard
     * writes only its own contiguous range. */
    std::vector<double> demand;
    /// @}
    /**
     * Shard cuts for `cut.size() - 1` shards: shard s evaluates servers
     * [cut[s], cut[s + 1]), contiguous id ranges of about equal work
     * (one per server plus one per hosted VM).
     */
    std::vector<size_t> cut;
    /** Set when placement or a trace changed since the last build. */
    bool stale = true;
};

} // namespace sim
} // namespace nps

#endif // NPS_SIM_SOA_H
