/**
 * @file
 * Simulated server: hosts VMs, exposes the P-state actuator and the power
 * and utilization sensors, and evaluates one tick of service.
 *
 * Service model (Section 4.2 of the paper): no queueing — demand that
 * exceeds the current capacity in an interval is lost, which is the
 * performance-loss channel. Capacity is the P-state's relative speed;
 * virtualization adds a fixed fractional overhead to every VM's load, and
 * an in-flight migration adds a further fractional tax.
 *
 * Like VirtualMachine, a Server is a thin view over a struct-of-arrays
 * state store (sim/soa.h): cluster-owned servers share the cluster's
 * store at slot == id, standalone servers own a private single-slot
 * store. The accessors below are the only way state is read or written,
 * so the two modes are indistinguishable to callers.
 */

#ifndef NPS_SIM_SERVER_H
#define NPS_SIM_SERVER_H

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "model/machine.h"
#include "sim/soa.h"
#include "sim/vm.h"

namespace nps {
namespace sim {

/** Power state of the whole platform. */
enum class PlatformPower
{
    On,
    Off,
    Booting,
};

/** Per-tick evaluation result of one server. */
struct ServerTick
{
    double power = 0.0;           //!< watts consumed this tick
    double apparent_util = 0.0;   //!< utilization at the current P-state
    double real_util = 0.0;       //!< served load in full-speed units
    double demanded_useful = 0.0; //!< useful work requested by hosted VMs
    double served_useful = 0.0;   //!< useful work actually delivered
};

/**
 * One simulated server.
 */
class Server
{
  public:
    /**
     * Standalone view: owns a private single-slot state store.
     *
     * @param id    Unique server id (dense, used as index).
     * @param spec  Immutable machine description (shared across servers).
     * @param alpha_v Virtualization overhead as a fraction of VM load.
     * @param alpha_m Migration overhead as a fraction of VM load.
     */
    Server(ServerId id, std::shared_ptr<const model::MachineSpec> spec,
           double alpha_v, double alpha_m);

    /**
     * Cluster view: state lives at @p slot of the shared @p store.
     * @pre store != nullptr and slot < store->size().
     */
    Server(ServerId id, std::shared_ptr<const model::MachineSpec> spec,
           double alpha_v, double alpha_m,
           std::shared_ptr<ServerStateSoA> store, uint32_t slot);

    /** @return unique id. */
    ServerId id() const { return id_; }

    /** @return the machine spec. */
    const model::MachineSpec &spec() const { return *spec_; }

    /** @return the power/performance model. */
    const model::PowerModel &model() const { return spec_->model(); }

    /// @name Placement
    /// @{

    /** Attach VM @p vm to this server. @pre not already hosted here. */
    void addVm(VmId vm);

    /** Detach VM @p vm. @pre currently hosted here. */
    void removeVm(VmId vm);

    /** Hosted VM ids (unordered). */
    const std::vector<VmId> &vms() const { return vms_; }

    /// @}
    /// @name Platform power state
    /// @{

    /** @return the platform power state as of @p tick (resolves boot). */
    PlatformPower
    platformPower(size_t tick) const
    {
        const PlatformPower state = powerState();
        if (state == PlatformPower::Booting &&
            tick >= store_->boot_done_tick[slot_])
            return PlatformPower::On;
        return state;
    }

    /** @return true when serving at @p tick. */
    bool isOn(size_t tick) const
    {
        return platformPower(tick) == PlatformPower::On;
    }

    /**
     * Power the platform off. @pre no hosted VMs (powering off a loaded
     * server is a controller bug and panics).
     */
    void powerOff();

    /** Begin power-on at @p tick; the boot takes spec().bootTicks(). */
    void powerOn(size_t tick);

    /** @return true when the platform was ever powered off/on (vs the
     * initial always-on state). */
    bool everOff() const { return store_->ever_off[slot_] != 0; }

    /// @}
    /// @name P-state actuator
    /// @{

    /** Current P-state index. */
    size_t pstate() const { return store_->pstate[slot_]; }

    /** Set the P-state index. @pre valid index (panics otherwise) */
    void
    setPState(size_t p)
    {
        if (p >= spec_->pstates().size())
            badPState(p);
        store_->pstate[slot_] = static_cast<uint32_t>(p);
    }

    /** Clock frequency (MHz) of the current P-state. */
    double frequencyMhz() const
    {
        return spec_->pstates().at(pstate()).freq_mhz;
    }

    /// @}
    /// @name Auxiliary (memory) power actuator — MIMO extension hook
    /// @{

    /**
     * Toggle the platform's memory low-power mode: trims power by a fixed
     * fraction at the cost of a small capacity reduction. A second
     * actuator for the multi-input extension of Section 6.
     */
    void setMemLowPower(bool on) { store_->mem_low_power[slot_] = on; }

    /** @return true when memory low-power mode is engaged. */
    bool memLowPower() const { return store_->mem_low_power[slot_] != 0; }

    /// @}
    /// @name Tick evaluation and sensors
    /// @{

    /**
     * Serve one tick: aggregates hosted VM demand (with virtualization
     * and migration overheads), caps it by the current capacity, computes
     * power, and records per-VM served work into @p vms. Runs serveTick,
     * the arithmetic Cluster::evaluateTick's kernel runs too.
     *
     * @param tick current simulation tick
     * @param vms  the cluster's VM store, indexed by VmId
     * @return the evaluation result (also retained as last*()).
     */
    ServerTick evaluate(size_t tick, std::vector<VirtualMachine> &vms);

    /** Most recent evaluation (zeros before the first). */
    ServerTick
    last() const
    {
        ServerTick t;
        t.power = store_->power[slot_];
        t.apparent_util = store_->apparent_util[slot_];
        t.real_util = store_->real_util[slot_];
        t.demanded_useful = store_->demanded_useful[slot_];
        t.served_useful = store_->served_useful[slot_];
        return t;
    }

    /** Measured power of the last tick (the SM/EM/GM sensor Sp). */
    double lastPower() const { return store_->power[slot_]; }

    /** Measured apparent utilization of the last tick (the EC sensor Sr). */
    double lastApparentUtil() const { return store_->apparent_util[slot_]; }

    /** Served load of the last tick in full-speed units. */
    double lastRealUtil() const { return store_->real_util[slot_]; }

    /// @}

    /**
     * Serialize mutable state (checkpointing). VM placement is restored
     * separately by the Cluster, so vms_ is not included here.
     */
    void
    saveState(ckpt::SectionWriter &w) const
    {
        w.putU32(store_->power_state[slot_]);
        w.putU64(store_->boot_done_tick[slot_]);
        w.putBool(store_->ever_off[slot_] != 0);
        w.putU64(store_->pstate[slot_]);
        w.putBool(store_->mem_low_power[slot_] != 0);
        w.putDouble(store_->power[slot_]);
        w.putDouble(store_->apparent_util[slot_]);
        w.putDouble(store_->real_util[slot_]);
        w.putDouble(store_->demanded_useful[slot_]);
        w.putDouble(store_->served_useful[slot_]);
    }

    /** Restore mutable state (checkpoint restore). */
    void
    loadState(ckpt::SectionReader &r)
    {
        store_->power_state[slot_] = static_cast<uint8_t>(r.getU32());
        store_->boot_done_tick[slot_] = r.getU64();
        store_->ever_off[slot_] = r.getBool() ? 1 : 0;
        store_->pstate[slot_] = static_cast<uint32_t>(r.getU64());
        store_->mem_low_power[slot_] = r.getBool() ? 1 : 0;
        store_->power[slot_] = r.getDouble();
        store_->apparent_util[slot_] = r.getDouble();
        store_->real_util[slot_] = r.getDouble();
        store_->demanded_useful[slot_] = r.getDouble();
        store_->served_useful[slot_] = r.getDouble();
    }

    /** Fractional power trim when memory low-power mode is on. */
    static constexpr double kMemPowerTrim = 0.08;

    /** Fractional capacity cost of memory low-power mode. */
    static constexpr double kMemCapacityCost = 0.05;

  private:
    [[noreturn]] void badPState(size_t p) const;

    PlatformPower
    powerState() const
    {
        return static_cast<PlatformPower>(store_->power_state[slot_]);
    }

    void
    setPowerState(PlatformPower p)
    {
        store_->power_state[slot_] = static_cast<uint8_t>(p);
    }

    ServerId id_;
    std::shared_ptr<const model::MachineSpec> spec_;
    double alpha_v_;
    double alpha_m_;

    std::vector<VmId> vms_;
    std::shared_ptr<ServerStateSoA> store_;
    uint32_t slot_ = 0;
};

/**
 * One (machine spec, P-state) row of the plant's power table: the
 * state's relative speed and its linear power model.
 */
struct PowerRow
{
    double rel_speed = 1.0; //!< PStateTable::relSpeed of the state
    model::PState state;    //!< PState::powerAt is the power expression

    /** Row @p p of @p table (panics when @p p is out of range). */
    static PowerRow
    of(const model::PStateTable &table, size_t p)
    {
        return {table.relSpeed(p), table.at(p)};
    }
};

/** Panic: server @p id is off but hosts VMs (a controller bug). */
[[noreturn]] void offServerHostsVms(ServerId id);

/**
 * The service model of one server for one tick — the one copy of the
 * arithmetic, run by Server::evaluate and by Cluster::evaluateTick's
 * kernel.
 *
 * Resolves a finished boot into On (written back to @p st), sums the
 * hosted demand with its virtualization and migration overheads, and
 * serves it: an off server draws its off watts, a booting one idles
 * at P0 and serves nothing, an on one serves up to the P-state's
 * relative speed (less the memory low-power capacity cost) and draws
 * that state's power at the apparent utilization. The five sensors
 * land in @p st at @p slot, each VM's outcome through @p vms.
 *
 * @param spec the server's machine: offWatts(), bootWatts() and
 *        row(pstate) -> PowerRow (panicking on a bad P-state)
 * @param vms the hosted VMs in hosting order: size(), demand(k),
 *        migrating(k) and record(k, demanded, served, apparent_share)
 */
template <class Spec, class Hosted>
inline ServerTick
serveTick(ServerId id, size_t tick, const Spec &spec, double alpha_v,
          double alpha_m, ServerStateSoA &st, size_t slot, Hosted &vms)
{
    uint8_t &power_state = st.power_state[slot];
    if (power_state == static_cast<uint8_t>(PlatformPower::Booting) &&
        tick >= st.boot_done_tick[slot])
        power_state = static_cast<uint8_t>(PlatformPower::On);

    // Gather useful-work demand and overheads.
    const size_t n = vms.size();
    double useful = 0.0;
    double overhead = 0.0;
    for (size_t k = 0; k < n; ++k) {
        const double d = vms.demand(k);
        useful += d;
        overhead += alpha_v * d;
        if (vms.migrating(k))
            overhead += alpha_m * d;
    }

    ServerTick out;
    out.demanded_useful = useful;
    if (power_state == static_cast<uint8_t>(PlatformPower::Off)) {
        if (n != 0)
            offServerHostsVms(id);
        out.power = spec.offWatts();
    } else if (power_state == static_cast<uint8_t>(PlatformPower::Booting)) {
        // Burns idle power at the boot P-state (P0); serves nothing.
        out.power = spec.bootWatts();
        for (size_t k = 0; k < n; ++k)
            vms.record(k, vms.demand(k), 0.0, 0.0);
    } else {
        const PowerRow row = spec.row(st.pstate[slot]);
        const bool mem_low = st.mem_low_power[slot] != 0;
        double capacity = row.rel_speed;
        if (mem_low)
            capacity *= 1.0 - Server::kMemCapacityCost;

        const double total_load = useful + overhead;
        const double served_frac =
            total_load > capacity && total_load > 0.0
                ? capacity / total_load
                : 1.0;
        out.served_useful = useful * served_frac;
        out.real_util = std::min(total_load, capacity);
        // relSpeed already normalized capacity to full speed, so this
        // is the utilization on the P-state's own axis.
        out.apparent_util =
            capacity > 0.0 ? std::min(1.0, total_load / capacity) : 1.0;
        out.power = row.state.powerAt(out.apparent_util);
        if (mem_low)
            out.power *= 1.0 - Server::kMemPowerTrim;

        for (size_t k = 0; k < n; ++k) {
            const double d = vms.demand(k);
            const double load = d * (1.0 + alpha_v) +
                                (vms.migrating(k) ? alpha_m * d : 0.0);
            const double apparent_share =
                capacity > 0.0 ? load * served_frac / capacity : 0.0;
            vms.record(k, d, d * served_frac, apparent_share);
        }
    }
    st.power[slot] = out.power;
    st.apparent_util[slot] = out.apparent_util;
    st.real_util[slot] = out.real_util;
    st.demanded_useful[slot] = out.demanded_useful;
    st.served_useful[slot] = out.served_useful;
    return out;
}

} // namespace sim
} // namespace nps

#endif // NPS_SIM_SERVER_H
