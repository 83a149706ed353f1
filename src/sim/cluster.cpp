#include "sim/cluster.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace nps {
namespace sim {

std::string
BudgetConfig::label() const
{
    std::ostringstream ss;
    ss << static_cast<int>(grp_off_frac * 100.0 + 0.5) << '-'
       << static_cast<int>(enc_off_frac * 100.0 + 0.5) << '-'
       << static_cast<int>(loc_off_frac * 100.0 + 0.5);
    return ss.str();
}

Cluster::Cluster(const Topology &topo, const model::MachineSpec &spec,
                 const std::vector<trace::UtilizationTrace> &traces,
                 const BudgetConfig &budgets, double alpha_v,
                 double alpha_m)
    : server_store_(std::make_shared<ServerStateSoA>()),
      vm_store_(std::make_shared<VmStateSoA>()), budgets_(budgets),
      alpha_v_(alpha_v), alpha_m_(alpha_m)
{
    auto shared = std::make_shared<const model::MachineSpec>(spec);
    server_store_->resize(topo.num_servers);
    servers_.reserve(topo.num_servers);
    for (unsigned i = 0; i < topo.num_servers; ++i)
        servers_.emplace_back(i, shared, alpha_v_, alpha_m_,
                              server_store_, i);
    buildTopology(topo);
    initialPlacement(traces);
    cacheBudgets();
}

Cluster::Cluster(
    const Topology &topo,
    const std::vector<std::shared_ptr<const model::MachineSpec>> &specs,
    const std::vector<trace::UtilizationTrace> &traces,
    const BudgetConfig &budgets, double alpha_v, double alpha_m)
    : server_store_(std::make_shared<ServerStateSoA>()),
      vm_store_(std::make_shared<VmStateSoA>()), budgets_(budgets),
      alpha_v_(alpha_v), alpha_m_(alpha_m)
{
    if (specs.size() != topo.num_servers)
        util::fatal("Cluster: %zu specs for %u servers", specs.size(),
                    topo.num_servers);
    server_store_->resize(topo.num_servers);
    servers_.reserve(topo.num_servers);
    for (unsigned i = 0; i < topo.num_servers; ++i)
        servers_.emplace_back(i, specs[i], alpha_v_, alpha_m_,
                              server_store_, i);
    buildTopology(topo);
    initialPlacement(traces);
    cacheBudgets();
}

void
Cluster::buildTopology(const Topology &topo)
{
    topo.validate();
    const unsigned enclosed = topo.num_enclosures * topo.enclosure_size;
    server_enclosure_.assign(topo.num_servers, kNoEnclosure);
    for (unsigned e = 0; e < topo.num_enclosures; ++e) {
        std::vector<ServerId> members;
        for (unsigned b = 0; b < topo.enclosure_size; ++b) {
            ServerId sid = e * topo.enclosure_size + b;
            members.push_back(sid);
            server_enclosure_[sid] = e;
        }
        enclosures_.emplace_back(e, "enc" + std::to_string(e),
                                 std::move(members));
    }
    for (ServerId sid = enclosed; sid < topo.num_servers; ++sid)
        standalone_.push_back(sid);
    last_.enclosure_power.assign(enclosures_.size(), 0.0);
}

void
Cluster::initialPlacement(
    const std::vector<trace::UtilizationTrace> &traces)
{
    if (traces.size() > servers_.size())
        util::fatal("Cluster: %zu workloads exceed %zu servers",
                    traces.size(), servers_.size());
    vm_store_->resize(traces.size());
    vms_.reserve(traces.size());
    vm_server_.assign(traces.size(), kNoServer);
    for (VmId id = 0; id < traces.size(); ++id) {
        vms_.emplace_back(id, traces[id], vm_store_,
                          static_cast<uint32_t>(id));
        vm_server_[id] = id;
        servers_[id].addVm(id);
    }
}

void
Cluster::cacheBudgets()
{
    // Same expressions, same summation order as the former per-call
    // accessors — cached once since specs never change after build.
    server_max_.resize(servers_.size());
    cap_loc_.resize(servers_.size());
    for (size_t i = 0; i < servers_.size(); ++i) {
        server_max_[i] = servers_[i].model().maxPower();
        cap_loc_[i] = (1.0 - budgets_.loc_off_frac) * server_max_[i];
    }
    enc_max_.resize(enclosures_.size());
    cap_enc_.resize(enclosures_.size());
    for (size_t e = 0; e < enclosures_.size(); ++e) {
        double sum = 0.0;
        for (ServerId sid : enclosures_[e].members())
            sum += server_max_[sid];
        enc_max_[e] = sum;
        cap_enc_[e] = (1.0 - budgets_.enc_off_frac) * sum;
    }
    group_max_ = 0.0;
    for (const auto &s : servers_)
        group_max_ += s.model().maxPower();
    cap_grp_ = (1.0 - budgets_.grp_off_frac) * group_max_;
}

Server &
Cluster::server(ServerId id)
{
    if (id >= servers_.size())
        util::panic("Cluster::server(%u): out of range", id);
    return servers_[id];
}

const Server &
Cluster::server(ServerId id) const
{
    if (id >= servers_.size())
        util::panic("Cluster::server(%u): out of range", id);
    return servers_[id];
}

const Enclosure &
Cluster::enclosure(EnclosureId id) const
{
    if (id >= enclosures_.size())
        util::panic("Cluster::enclosure(%u): out of range", id);
    return enclosures_[id];
}

EnclosureId
Cluster::enclosureOf(ServerId server) const
{
    if (server >= server_enclosure_.size())
        util::panic("Cluster::enclosureOf(%u): out of range", server);
    return server_enclosure_[server];
}

const VirtualMachine &
Cluster::vm(VmId id) const
{
    if (id >= vms_.size())
        util::panic("Cluster::vm(%u): out of range", id);
    return vms_[id];
}

void
Cluster::replaceVm(VmId id, trace::UtilizationTrace tr)
{
    if (id >= vms_.size())
        util::panic("Cluster::replaceVm(%u): out of range", id);
    vms_[id] = VirtualMachine(id, std::move(tr), vm_store_, id);
    VmStateSoA &st = *vm_store_;
    st.migrating_until[id] = 0;
    st.last_demanded[id] = 0.0;
    st.last_served[id] = 0.0;
    st.last_apparent_share[id] = 0.0;
}

ServerId
Cluster::serverOf(VmId vm) const
{
    if (vm >= vm_server_.size())
        util::panic("Cluster::serverOf(%u): out of range", vm);
    return vm_server_[vm];
}

void
Cluster::placeVm(VmId vm, ServerId dst)
{
    if (dst >= servers_.size())
        util::panic("Cluster::placeVm: server %u out of range", dst);
    ServerId src = serverOf(vm);
    if (src == dst)
        return;
    if (src != kNoServer)
        servers_[src].removeVm(vm);
    servers_[dst].addVm(vm);
    vm_server_[vm] = dst;
}

void
Cluster::migrateVm(VmId vm, ServerId dst, size_t tick,
                   size_t migration_ticks)
{
    if (serverOf(vm) == dst)
        return;
    placeVm(vm, dst);
    vms_[vm].beginMigration(tick + migration_ticks);
}

double
Cluster::serverMaxPower(ServerId id) const
{
    if (id >= server_max_.size())
        util::panic("Cluster::serverMaxPower(%u): out of range", id);
    return server_max_[id];
}

double
Cluster::capLoc(ServerId id) const
{
    if (id >= cap_loc_.size())
        util::panic("Cluster::capLoc(%u): out of range", id);
    return cap_loc_[id];
}

double
Cluster::enclosureMaxPower(EnclosureId id) const
{
    if (id >= enc_max_.size())
        util::panic("Cluster::enclosureMaxPower(%u): out of range", id);
    return enc_max_[id];
}

double
Cluster::capEnc(EnclosureId id) const
{
    if (id >= cap_enc_.size())
        util::panic("Cluster::capEnc(%u): out of range", id);
    return cap_enc_[id];
}

double
Cluster::groupMaxPower() const
{
    return group_max_;
}

double
Cluster::capGrp() const
{
    return cap_grp_;
}

void
Cluster::enableExternalDemand()
{
    vm_store_->external_demand = 1;
    if (vm_store_->staged_demand.size() != vms_.size())
        vm_store_->staged_demand.assign(vms_.size(), 0.0);
}

const ClusterTick &
Cluster::evaluateTick(size_t tick, util::ThreadPool *pool)
{
    // Phase 1: evaluate every server. Evaluations are independent (each
    // server reads and writes only itself and the disjoint set of VMs it
    // hosts), so they fan out across contiguous server shards. Each shard
    // also counts its SM-level budget violations (live servers over
    // CAP_LOC), so the metrics pass needs no per-server walk.
    const size_t n = servers_.size();
    const bool parallel = pool != nullptr && pool->size() > 1 && n > 1;
    const size_t shards = parallel ? pool->size() : 1;
    const util::ShardRange range(n, shards);
    const ServerStateSoA &st = *server_store_;
    shard_counts_.assign(shards, {0, 0});
    auto evaluateShard = [&](size_t s) {
        size_t live = 0, over = 0;
        for (size_t i = range.lo(s); i < range.hi(s); ++i) {
            servers_[i].evaluate(tick, vms_);
            if (servers_[i].platformPower(tick) == PlatformPower::Off)
                continue;
            ++live;
            over += st.power[i] > cap_loc_[i] + kBudgetSlack ? 1 : 0;
        }
        shard_counts_[s] = {live, over};
    };
    if (parallel)
        pool->parallelFor(shards, evaluateShard);
    else
        evaluateShard(0);

    // Phase 2: aggregate serially, in server-id order, on the calling
    // thread — the identical left-fold either way, so parallel and
    // serial runs produce bit-identical sums. The fold reads the SoA
    // sensor arrays directly (cluster-owned servers are never reseated,
    // so slot i is server i) and reuses last_'s buffers in place — no
    // per-tick allocation.
    last_.total_power = 0.0;
    last_.demanded_useful = 0.0;
    last_.served_useful = 0.0;
    if (last_.enclosure_power.size() != enclosures_.size())
        last_.enclosure_power.assign(enclosures_.size(), 0.0);
    else
        std::fill(last_.enclosure_power.begin(),
                  last_.enclosure_power.end(), 0.0);
    last_.live_servers = 0;
    last_.over_cap_loc = 0;
    for (const auto &c : shard_counts_) {
        last_.live_servers += c.first;
        last_.over_cap_loc += c.second;
    }
    for (size_t i = 0; i < servers_.size(); ++i) {
        last_.total_power += st.power[i];
        last_.demanded_useful += st.demanded_useful[i];
        last_.served_useful += st.served_useful[i];
        EnclosureId enc = server_enclosure_[i];
        if (enc != kNoEnclosure)
            last_.enclosure_power[enc] += st.power[i];
    }
    return last_;
}

double
Cluster::lastEnclosurePower(EnclosureId id) const
{
    if (id >= last_.enclosure_power.size())
        util::panic("Cluster::lastEnclosurePower(%u): out of range", id);
    return last_.enclosure_power[id];
}

void
Cluster::saveState(ckpt::SectionWriter &w) const
{
    w.putU64(servers_.size());
    w.putU64(vms_.size());
    for (ServerId srv : vm_server_)
        w.putU64(srv);
    for (const Server &srv : servers_)
        srv.saveState(w);
    for (const VirtualMachine &vm : vms_)
        vm.saveState(w);
    w.putDouble(last_.total_power);
    w.putDoubleVec(last_.enclosure_power);
    w.putDouble(last_.demanded_useful);
    w.putDouble(last_.served_useful);
}

void
Cluster::loadState(ckpt::SectionReader &r)
{
    auto n_servers = static_cast<size_t>(r.getU64());
    auto n_vms = static_cast<size_t>(r.getU64());
    if (n_servers != servers_.size() || n_vms != vms_.size())
        util::fatal("cluster restore: snapshot has %zu servers / %zu VMs, "
                    "rebuilt cluster has %zu / %zu — config/topology "
                    "mismatch",
                    n_servers, n_vms, servers_.size(), vms_.size());
    for (VmId vm = 0; vm < vms_.size(); ++vm) {
        auto dst = static_cast<ServerId>(r.getU64());
        if (dst >= servers_.size())
            util::fatal("cluster restore: VM %u placed on server %u, out "
                        "of range",
                        vm, dst);
        placeVm(vm, dst);
    }
    for (Server &srv : servers_)
        srv.loadState(r);
    for (VirtualMachine &vm : vms_)
        vm.loadState(r);
    last_.total_power = r.getDouble();
    last_.enclosure_power = r.getDoubleVec();
    last_.demanded_useful = r.getDouble();
    last_.served_useful = r.getDouble();
    // Empty before the first evaluated tick; sized per-enclosure after.
    if (!last_.enclosure_power.empty() &&
        last_.enclosure_power.size() != enclosures_.size())
        util::fatal("cluster restore: enclosure count mismatch");
}

} // namespace sim
} // namespace nps
