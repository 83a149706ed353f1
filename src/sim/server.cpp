#include "sim/server.h"

#include <algorithm>

#include "util/logging.h"

namespace nps {
namespace sim {

Server::Server(ServerId id, std::shared_ptr<const model::MachineSpec> spec,
               double alpha_v, double alpha_m)
    : id_(id), spec_(std::move(spec)), alpha_v_(alpha_v), alpha_m_(alpha_m),
      store_(std::make_shared<ServerStateSoA>()), slot_(0)
{
    if (!spec_)
        util::fatal("Server %u: null machine spec", id_);
    if (alpha_v_ < 0.0 || alpha_m_ < 0.0)
        util::fatal("Server %u: negative overhead", id_);
    store_->resize(1);
}

Server::Server(ServerId id, std::shared_ptr<const model::MachineSpec> spec,
               double alpha_v, double alpha_m,
               std::shared_ptr<ServerStateSoA> store, uint32_t slot)
    : id_(id), spec_(std::move(spec)), alpha_v_(alpha_v), alpha_m_(alpha_m),
      store_(std::move(store)), slot_(slot)
{
    if (!spec_)
        util::fatal("Server %u: null machine spec", id_);
    if (alpha_v_ < 0.0 || alpha_m_ < 0.0)
        util::fatal("Server %u: negative overhead", id_);
    if (!store_ || slot_ >= store_->size())
        util::fatal("Server %u: bad state slot %u", id_, slot_);
}

void
Server::addVm(VmId vm)
{
    if (std::find(vms_.begin(), vms_.end(), vm) != vms_.end())
        util::panic("Server %u: VM %u already hosted", id_, vm);
    vms_.push_back(vm);
}

void
Server::removeVm(VmId vm)
{
    auto it = std::find(vms_.begin(), vms_.end(), vm);
    if (it == vms_.end())
        util::panic("Server %u: VM %u not hosted", id_, vm);
    vms_.erase(it);
}

void
Server::powerOff()
{
    if (!vms_.empty())
        util::panic("Server %u: powering off with %zu hosted VMs", id_,
                    vms_.size());
    setPowerState(PlatformPower::Off);
    store_->ever_off[slot_] = 1;
}

void
Server::powerOn(size_t tick)
{
    if (powerState() != PlatformPower::Off)
        return;
    setPowerState(PlatformPower::Booting);
    store_->boot_done_tick[slot_] = tick + spec_->bootTicks();
}

void
Server::badPState(size_t p) const
{
    util::panic("Server %u: P-state %zu out of range", id_, p);
}

ServerTick
Server::evaluate(size_t tick, std::vector<VirtualMachine> &vms)
{
    // Resolve a finished boot into the On state.
    if (powerState() == PlatformPower::Booting &&
        tick >= store_->boot_done_tick[slot_])
        setPowerState(PlatformPower::On);

    ServerTick out;

    // Gather useful-work demand and overheads.
    double useful = 0.0;
    double overhead = 0.0;
    for (VmId vm_id : vms_) {
        VirtualMachine &vm = vms.at(vm_id);
        double d = vm.demandAt(tick);
        useful += d;
        overhead += alpha_v_ * d;
        if (vm.migrating(tick))
            overhead += alpha_m_ * d;
    }
    out.demanded_useful = useful;

    const PlatformPower state = powerState();
    if (state == PlatformPower::Off) {
        if (!vms_.empty())
            util::panic("Server %u: off but hosting VMs", id_);
        out.power = spec_->offWatts();
        commit(out);
        return out;
    }
    if (state == PlatformPower::Booting) {
        // Burns idle power at the boot P-state (P0); serves nothing.
        out.power = model().idlePower(0);
        for (VmId vm_id : vms_) {
            VirtualMachine &vm = vms.at(vm_id);
            vm.recordServed(vm.demandAt(tick), 0.0, 0.0);
        }
        commit(out);
        return out;
    }

    double capacity = spec_->pstates().relSpeed(pstate());
    if (memLowPower())
        capacity *= 1.0 - kMemCapacityCost;

    double total_load = useful + overhead;
    double served_frac =
        total_load > capacity && total_load > 0.0 ? capacity / total_load
                                                  : 1.0;
    out.served_useful = useful * served_frac;
    out.real_util = std::min(total_load, capacity);
    out.apparent_util =
        capacity > 0.0 ? std::min(1.0, total_load / capacity) : 1.0;
    // Scale utilization back to the P-state's own axis: relSpeed already
    // normalized capacity to full speed, so apparent_util is correct as a
    // fraction of this state's capacity.
    out.power = model().powerAt(pstate(), out.apparent_util);
    if (memLowPower())
        out.power *= 1.0 - kMemPowerTrim;

    for (VmId vm_id : vms_) {
        VirtualMachine &vm = vms.at(vm_id);
        double d = vm.demandAt(tick);
        double load = d * (1.0 + alpha_v_) +
                      (vm.migrating(tick) ? alpha_m_ * d : 0.0);
        double apparent_share =
            capacity > 0.0 ? load * served_frac / capacity : 0.0;
        vm.recordServed(d, d * served_frac, apparent_share);
    }
    commit(out);
    return out;
}

} // namespace sim
} // namespace nps
