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

namespace {

/** serveTick's view of a standalone server's spec. */
struct SpecView
{
    const model::MachineSpec &spec;

    double offWatts() const { return spec.offWatts(); }
    double bootWatts() const { return spec.model().idlePower(0); }
    PowerRow row(size_t p) const { return PowerRow::of(spec.pstates(), p); }
};

/** serveTick's view of the hosted VMs, through the VM objects. */
struct HostedVms
{
    const std::vector<VmId> &ids;
    std::vector<VirtualMachine> &vms;
    size_t tick;

    size_t size() const { return ids.size(); }
    double demand(size_t k) const { return vms.at(ids[k]).demandAt(tick); }
    bool migrating(size_t k) const { return vms.at(ids[k]).migrating(tick); }

    void
    record(size_t k, double demanded, double served, double share) const
    {
        vms.at(ids[k]).recordServed(demanded, served, share);
    }
};

} // namespace

void
offServerHostsVms(ServerId id)
{
    util::panic("Server %u: off but hosting VMs", id);
}

ServerTick
Server::evaluate(size_t tick, std::vector<VirtualMachine> &vms)
{
    HostedVms hosted{vms_, vms, tick};
    return serveTick(id_, tick, SpecView{*spec_}, alpha_v_, alpha_m_,
                     *store_, slot_, hosted);
}

} // namespace sim
} // namespace nps
