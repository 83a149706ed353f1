/**
 * @file
 * Cluster: the complete managed system — servers, enclosures, VMs, the
 * VM-to-server placement, and the static power budgets at every level.
 *
 * The paper's base topology is reproduced by the builders: 180 servers as
 * six 20-blade enclosures plus sixty standalone servers (and the 60-server
 * variant as two enclosures plus twenty standalone).
 */

#ifndef NPS_SIM_CLUSTER_H
#define NPS_SIM_CLUSTER_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/machine.h"
#include "sim/enclosure.h"
#include "sim/server.h"
#include "sim/soa.h"
#include "sim/topology.h"
#include "sim/vm.h"
#include "trace/trace.h"

namespace nps {
namespace util {
class ThreadPool;
} // namespace util

namespace sim {

/**
 * Static power budgets expressed as fractional savings off the maximum
 * possible power at each level: the paper's "20-15-10" configuration means
 * the group cap is 20% below group max power, enclosure caps 15% below
 * enclosure max, and local caps 10% below server max.
 */
struct BudgetConfig
{
    double grp_off_frac = 0.20;  //!< CAP_GRP = (1 - grp_off_frac) * max
    double enc_off_frac = 0.15;  //!< CAP_ENC per enclosure
    double loc_off_frac = 0.10;  //!< CAP_LOC per server

    /** The paper's three studied configurations. */
    static BudgetConfig paper201510() { return {0.20, 0.15, 0.10}; }
    static BudgetConfig paper252015() { return {0.25, 0.20, 0.15}; }
    static BudgetConfig paper302520() { return {0.30, 0.25, 0.20}; }

    /** Paper label, e.g. "20-15-10". */
    std::string label() const;
};

/** Per-tick cluster-wide evaluation summary. */
struct ClusterTick
{
    double total_power = 0.0;            //!< group power (watts)
    std::vector<double> enclosure_power; //!< per-enclosure power
    double demanded_useful = 0.0;        //!< useful work requested
    double served_useful = 0.0;          //!< useful work delivered
    /** Servers not powered off (the SM-level violation denominator). */
    size_t live_servers = 0;
    /** Live servers over their CAP_LOC (plus Cluster::kBudgetSlack). */
    size_t over_cap_loc = 0;
};

/**
 * The complete simulated data center.
 */
class Cluster
{
  public:
    /**
     * Build a cluster with one VM per trace, initially placed 1:1 on the
     * servers (VM j on server j). All machines share one spec.
     *
     * @param topo    Topology (server/enclosure counts).
     * @param spec    Machine spec used for every server.
     * @param traces  One workload trace per VM; the count must not exceed
     *                the number of servers.
     * @param budgets Static power budget configuration.
     * @param alpha_v Virtualization overhead fraction.
     * @param alpha_m Migration overhead fraction.
     */
    Cluster(const Topology &topo, const model::MachineSpec &spec,
            const std::vector<trace::UtilizationTrace> &traces,
            const BudgetConfig &budgets, double alpha_v, double alpha_m);

    /**
     * Heterogeneous variant: @p specs supplies one machine spec per
     * server (size must equal topo.num_servers).
     */
    Cluster(const Topology &topo,
            const std::vector<std::shared_ptr<const model::MachineSpec>>
                &specs,
            const std::vector<trace::UtilizationTrace> &traces,
            const BudgetConfig &budgets, double alpha_v, double alpha_m);

    /// @name Structure
    /// @{

    /** Number of servers. */
    size_t numServers() const { return servers_.size(); }

    /** Number of enclosures. */
    size_t numEnclosures() const { return enclosures_.size(); }

    /** Number of VMs. */
    size_t numVms() const { return vms_.size(); }

    /** Server by id. */
    Server &server(ServerId id);
    const Server &server(ServerId id) const;

    /** All servers. */
    std::vector<Server> &servers() { return servers_; }
    const std::vector<Server> &servers() const { return servers_; }

    /** Enclosure by id. */
    const Enclosure &enclosure(EnclosureId id) const;

    /** All enclosures. */
    const std::vector<Enclosure> &enclosures() const { return enclosures_; }

    /** Server ids not belonging to any enclosure. */
    const std::vector<ServerId> &standaloneServers() const
    {
        return standalone_;
    }

    /**
     * Enclosure id of @p server, or kNoEnclosure when standalone.
     */
    static constexpr EnclosureId kNoEnclosure =
        static_cast<EnclosureId>(-1);
    EnclosureId enclosureOf(ServerId server) const;

    /** VM by id. */
    const VirtualMachine &vm(VmId id) const;

    /** All VMs. Read-only, like vm(): a VM never leaves its slot. */
    const std::vector<VirtualMachine> &vms() const { return vms_; }

    /**
     * Give VM @p id a new trace and fresh state (no migration, zeroed
     * sensors), keeping it in its slot of the shared VM store that
     * vmState() readers fold. The only way to swap a cluster VM's trace.
     */
    void replaceVm(VmId id, trace::UtilizationTrace tr);

    /// @}
    /// @name Placement
    /// @{

    /** @return the server currently hosting @p vm. */
    ServerId serverOf(VmId vm) const;

    /**
     * Move @p vm to @p dst immediately (no overhead) — used for initial
     * placement and by tests.
     */
    void placeVm(VmId vm, ServerId dst);

    /**
     * Migrate @p vm to @p dst with the pre-copy overhead model: the VM is
     * taxed alpha_m extra load until @p tick + @p migration_ticks.
     * A no-op when the VM is already on @p dst.
     */
    void migrateVm(VmId vm, ServerId dst, size_t tick,
                   size_t migration_ticks);

    /// @}
    /// @name Budgets
    /// @{

    /** The budget configuration in force. */
    const BudgetConfig &budgetConfig() const { return budgets_; }

    /** Maximum possible power of server @p id (P0, full load). */
    double serverMaxPower(ServerId id) const;

    /** Static local cap CAP_LOC of server @p id. */
    double capLoc(ServerId id) const;

    /** Maximum possible power of enclosure @p id. */
    double enclosureMaxPower(EnclosureId id) const;

    /** Static enclosure cap CAP_ENC of enclosure @p id. */
    double capEnc(EnclosureId id) const;

    /** Maximum possible power of the whole group. */
    double groupMaxPower() const;

    /** Static group cap CAP_GRP. */
    double capGrp() const;

    /// @}
    /// @name Evaluation
    /// @{

    /**
     * Tolerance so borderline arithmetic noise does not count as a
     * violation of the physical budgets.
     */
    static constexpr double kBudgetSlack = 1e-9;

    /**
     * Serve one tick on every server and aggregate. Also retained as
     * lastTick().
     *
     * Phase 1 is a kernel over the placement columns (sim/soa.h): each
     * server runs serveTick over its CSR slice, each VM's demand read
     * once. When @p pool is non-null the evaluations (which are
     * independent: each touches only its own server and its hosted VMs)
     * fan out in one parallelFor across contiguous server ranges of
     * about equal work (one per server plus one per hosted VM), each
     * shard also counting its live and over-CAP_LOC servers. The power
     * aggregation is always a serial fold over servers in id order and
     * the counts are summed in shard order, so the result is
     * bit-identical for any pool size and any cut, including none.
     */
    const ClusterTick &evaluateTick(size_t tick,
                                    util::ThreadPool *pool = nullptr);

    /** The most recent evaluation (zeros before the first). */
    const ClusterTick &lastTick() const { return last_; }

    /** Power of enclosure @p id in the last tick. */
    double lastEnclosurePower(EnclosureId id) const;

    /// @}
    /// @name Checkpointing
    /// @{

    /**
     * Serialize all mutable state: VM placement, per-server and per-VM
     * dynamic state, and the last-tick aggregate. Structure (servers,
     * enclosures, traces, budgets) is rebuilt from config on restore.
     */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable state into an identically-built cluster. */
    void loadState(ckpt::SectionReader &r);

    /// @}
    /// @name External demand (the online engine, src/stream/)
    /// @{

    /**
     * Switch every VM's demandAt() from trace playback to the staged
     * demand array: from now on each tick serves whatever a telemetry
     * feed staged via stagedDemand(). Wiring time only; there is no way
     * back (an online run never mixes the two sources).
     */
    void enableExternalDemand();

    /** @return true once enableExternalDemand() has been called. */
    bool externalDemand() const { return vm_store_->external_demand != 0; }

    /**
     * The staged per-VM demand slots (index == VmId), written by the
     * feed before each tick. Only meaningful after
     * enableExternalDemand().
     */
    std::vector<double> &stagedDemand() { return vm_store_->staged_demand; }

    /// @}

    /** Shared per-server dynamic state (slot == ServerId). The hot
     * aggregation in evaluateTick folds over these arrays directly. */
    const ServerStateSoA &serverState() const { return *server_store_; }

    /** Shared per-VM dynamic state (slot == VmId). The VMC's observe
     * folds the last-tick columns directly. */
    const VmStateSoA &vmState() const { return *vm_store_; }

  private:
    /** A machine spec as the plant kernel reads it. */
    struct PlantSpec
    {
        uint32_t first_row = 0; //!< its P0 row in plant_rows_
        uint32_t states = 0;
        double off_watts = 0.0;
        double boot_watts = 0.0; //!< idle power at P0
    };

    void buildTopology(const Topology &topo);
    void initialPlacement(
        const std::vector<trace::UtilizationTrace> &traces);
    void cacheBudgets();
    /** Build the spec rows once, the placement columns when stale, and
     * the cuts for @p shards when the count changed. */
    void preparePlant(size_t shards);
    /** Phase 1 over servers [lo, hi): (live, over-CAP_LOC) counts. */
    std::pair<size_t, size_t> evaluateServers(size_t lo, size_t hi,
                                              size_t tick);

    std::shared_ptr<ServerStateSoA> server_store_;
    std::shared_ptr<VmStateSoA> vm_store_;
    std::vector<Server> servers_;
    std::vector<Enclosure> enclosures_;
    std::vector<ServerId> standalone_;
    std::vector<EnclosureId> server_enclosure_;
    std::vector<VirtualMachine> vms_;
    std::vector<ServerId> vm_server_;
    BudgetConfig budgets_;
    double alpha_v_;
    double alpha_m_;
    ClusterTick last_;
    /** Per-shard (live, over-cap) counts of the tick being evaluated. */
    std::vector<std::pair<size_t, size_t>> shard_counts_;
    /** Derived placement columns of the plant kernel. */
    PlacementColumns placement_;
    /** Flat per-(spec, P-state) power rows, built at the first tick. */
    std::vector<PowerRow> plant_rows_;
    std::vector<PlantSpec> plant_specs_;
    /** Per server: its index into plant_specs_. */
    std::vector<uint32_t> server_spec_;

    // Static caps, cached at construction (specs are immutable). The
    // cached values are computed with exactly the arithmetic the
    // accessors used to run per call, so goldens are bit-identical.
    std::vector<double> server_max_;
    std::vector<double> cap_loc_;
    std::vector<double> enc_max_;
    std::vector<double> cap_enc_;
    double group_max_ = 0.0;
    double cap_grp_ = 0.0;
};

} // namespace sim
} // namespace nps

#endif // NPS_SIM_CLUSTER_H
