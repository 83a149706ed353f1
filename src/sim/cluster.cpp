#include "sim/cluster.h"

#include <algorithm>
#include <map>
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
    placement_.stale = true;
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
    placement_.stale = true;
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

namespace {

/** serveTick's view of one spec's rows in the flat power table. */
struct SpecRows
{
    const PowerRow *rows;
    uint32_t states;
    double off_watts;
    double boot_watts;

    double offWatts() const { return off_watts; }
    double bootWatts() const { return boot_watts; }

    const PowerRow &
    row(size_t p) const
    {
        if (p >= states)
            util::panic("Cluster::evaluateTick: P-state %zu out of range",
                        p);
        return rows[p];
    }
};

/**
 * serveTick's view of one server's slice of the placement columns,
 * whose demand the shard's demand pass has already read.
 */
class CsrVms
{
  public:
    CsrVms(const PlacementColumns &pc, VmStateSoA &vs, size_t tick)
        : vm_(pc.vm.data()), demand_(pc.demand.data()),
          migrating_until_(vs.migrating_until.data()),
          last_demanded_(vs.last_demanded.data()),
          last_served_(vs.last_served.data()),
          last_apparent_share_(vs.last_apparent_share.data()), tick_(tick)
    {
    }

    /** Point at the CSR entries [lo, hi). */
    void
    select(size_t lo, size_t hi)
    {
        lo_ = lo;
        n_ = hi - lo;
    }

    size_t size() const { return n_; }
    double demand(size_t k) const { return demand_[lo_ + k]; }

    bool
    migrating(size_t k) const
    {
        return tick_ < migrating_until_[vm_[lo_ + k]];
    }

    void
    record(size_t k, double demanded, double served, double share) const
    {
        const uint32_t v = vm_[lo_ + k];
        last_demanded_[v] = demanded;
        last_served_[v] = served;
        last_apparent_share_[v] = share;
    }

  private:
    const uint32_t *vm_;
    const double *demand_;
    const uint64_t *migrating_until_;
    double *last_demanded_;
    double *last_served_;
    double *last_apparent_share_;
    size_t tick_;
    size_t lo_ = 0;
    size_t n_ = 0;
};

} // namespace

void
Cluster::preparePlant(size_t shards)
{
    const size_t n = servers_.size();
    if (server_spec_.size() != n) {
        // Specs are immutable: one set of rows per distinct spec, for
        // the cluster's lifetime.
        std::map<const model::MachineSpec *, uint32_t> seen;
        server_spec_.resize(n);
        for (size_t i = 0; i < n; ++i) {
            const model::MachineSpec *spec = &servers_[i].spec();
            const auto [it, added] = seen.emplace(
                spec, static_cast<uint32_t>(plant_specs_.size()));
            if (added) {
                PlantSpec ps;
                ps.first_row = static_cast<uint32_t>(plant_rows_.size());
                ps.states = static_cast<uint32_t>(spec->pstates().size());
                ps.off_watts = spec->offWatts();
                ps.boot_watts = spec->model().idlePower(0);
                for (size_t p = 0; p < ps.states; ++p)
                    plant_rows_.push_back(PowerRow::of(spec->pstates(), p));
                plant_specs_.push_back(ps);
            }
            server_spec_[i] = it->second;
        }
    }

    PlacementColumns &pc = placement_;
    if (pc.stale) {
        pc.host_begin.resize(n + 1);
        pc.vm.clear();
        pc.trace.clear();
        pc.trace_len.clear();
        for (size_t i = 0; i < n; ++i) {
            pc.host_begin[i] = static_cast<uint32_t>(pc.vm.size());
            for (VmId v : servers_[i].vms()) {
                const trace::UtilizationTrace &tr = vms_[v].trace();
                pc.vm.push_back(v);
                pc.trace.push_back(tr.samples().data());
                pc.trace_len.push_back(tr.length());
            }
        }
        pc.host_begin[n] = static_cast<uint32_t>(pc.vm.size());
        pc.demand.resize(pc.vm.size());
        pc.cut.clear();
        pc.stale = false;
    }

    if (pc.cut.size() != shards + 1) {
        // Server i's work is 1 + its VMs, so work before server i is
        // i + host_begin[i], strictly increasing: cut shard s at the
        // first server with work before it >= s/shards of the total.
        const size_t total = n + pc.vm.size();
        pc.cut.assign(shards + 1, n);
        pc.cut[0] = 0;
        size_t i = 0;
        for (size_t s = 1; s < shards; ++s) {
            while (i < n && (i + pc.host_begin[i]) * shards < s * total)
                ++i;
            pc.cut[s] = i;
        }
    }
}

std::pair<size_t, size_t>
Cluster::evaluateServers(size_t lo, size_t hi, size_t tick)
{
    ServerStateSoA &st = *server_store_;
    PlacementColumns &pc = placement_;
    const uint32_t *host_begin = pc.host_begin.data();

    // Demand pass: each hosted VM's demand, read once, into this
    // shard's range of the demand column. The loads are independent,
    // so a tight loop keeps many trace-line misses in flight.
    const VmStateSoA &vs = *vm_store_;
    double *demand = pc.demand.data();
    if (vs.external_demand) {
        const double *staged = vs.staged_demand.data();
        for (size_t j = host_begin[lo]; j < host_begin[hi]; ++j)
            demand[j] = staged[pc.vm[j]];
    } else {
        // Traces mostly share a length: reuse tick % length.
        size_t wrap_len = 0, wrap_at = 0;
        for (size_t j = host_begin[lo]; j < host_begin[hi]; ++j) {
            if (pc.trace_len[j] != wrap_len) {
                wrap_len = pc.trace_len[j];
                wrap_at = tick % wrap_len;
            }
            demand[j] = pc.trace[j][wrap_at];
        }
    }

    CsrVms hosted(pc, *vm_store_, tick);
    size_t live = 0, over = 0;
    for (size_t i = lo; i < hi; ++i) {
        const PlantSpec &ps = plant_specs_[server_spec_[i]];
        const SpecRows spec{plant_rows_.data() + ps.first_row, ps.states,
                            ps.off_watts, ps.boot_watts};
        hosted.select(host_begin[i], host_begin[i + 1]);
        serveTick(static_cast<ServerId>(i), tick, spec, alpha_v_, alpha_m_,
                  st, i, hosted);
        if (st.power_state[i] == static_cast<uint8_t>(PlatformPower::Off))
            continue;
        ++live;
        over += st.power[i] > cap_loc_[i] + kBudgetSlack ? 1 : 0;
    }
    return {live, over};
}

const ClusterTick &
Cluster::evaluateTick(size_t tick, util::ThreadPool *pool)
{
    // Phase 1: evaluate every server. Evaluations are independent (each
    // server reads and writes only itself, the disjoint set of VMs it
    // hosts and their CSR entries), so they fan out across contiguous
    // server ranges of about equal work. Each shard also counts its
    // SM-level budget violations (live servers over CAP_LOC), so the
    // metrics pass needs no per-server walk.
    const size_t n = servers_.size();
    const bool parallel = pool != nullptr && pool->size() > 1 && n > 1;
    const size_t shards = parallel ? pool->size() : 1;
    preparePlant(shards);
    const std::vector<size_t> &cut = placement_.cut;
    shard_counts_.assign(shards, {0, 0});
    auto evaluateShard = [&](size_t s) {
        shard_counts_[s] = evaluateServers(cut[s], cut[s + 1], tick);
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
    // per-tick allocation. The sums run in locals, and an enclosure's
    // sum in a register while consecutive servers share it: the same
    // additions in the same order as adding into the arrays.
    const ServerStateSoA &st = *server_store_;
    std::vector<double> &enc_power = last_.enclosure_power;
    if (enc_power.size() != enclosures_.size())
        enc_power.assign(enclosures_.size(), 0.0);
    else
        std::fill(enc_power.begin(), enc_power.end(), 0.0);
    last_.live_servers = 0;
    last_.over_cap_loc = 0;
    for (const auto &c : shard_counts_) {
        last_.live_servers += c.first;
        last_.over_cap_loc += c.second;
    }
    double total = 0.0, demanded = 0.0, served = 0.0, run = 0.0;
    EnclosureId run_enc = kNoEnclosure;
    for (size_t i = 0; i < n; ++i) {
        const double p = st.power[i];
        total += p;
        demanded += st.demanded_useful[i];
        served += st.served_useful[i];
        const EnclosureId enc = server_enclosure_[i];
        if (enc != run_enc) {
            if (run_enc != kNoEnclosure)
                enc_power[run_enc] = run;
            run_enc = enc;
            run = enc != kNoEnclosure ? enc_power[enc] : 0.0;
        }
        if (enc != kNoEnclosure)
            run += p;
    }
    if (run_enc != kNoEnclosure)
        enc_power[run_enc] = run;
    last_.total_power = total;
    last_.demanded_useful = demanded;
    last_.served_useful = served;
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
