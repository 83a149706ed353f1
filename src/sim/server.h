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
     * power, and records per-VM served work into @p vms.
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

    /** Publish a tick result into the store's sensor arrays. */
    void
    commit(const ServerTick &t)
    {
        store_->power[slot_] = t.power;
        store_->apparent_util[slot_] = t.apparent_util;
        store_->real_util[slot_] = t.real_util;
        store_->demanded_useful[slot_] = t.demanded_useful;
        store_->served_useful[slot_] = t.served_useful;
    }

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

} // namespace sim
} // namespace nps

#endif // NPS_SIM_SERVER_H
