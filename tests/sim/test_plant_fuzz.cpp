/**
 * @file
 * Differential tests for the plant kernel (Cluster::evaluateTick): on
 * random clusters, the kernel over the placement columns must produce
 * bit-for-bit the ClusterTick, ServerStateSoA and VmStateSoA columns of
 * the per-object walk it replaced — Server::evaluate on every server in
 * id order, then the serial fold — kept below as the oracle, at every
 * pool size and across placement changes, trace swaps, power
 * transitions, staged external demand and a checkpoint restore.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "model/machine.h"
#include "sim/cluster.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

using namespace nps::sim;
using nps::model::MachineSpec;
using nps::trace::UtilizationTrace;
using nps::trace::WorkloadClass;
using nps::util::Rng;
using nps::util::ThreadPool;

using SpecPtr = std::shared_ptr<const MachineSpec>;

constexpr auto kOff = static_cast<uint8_t>(PlatformPower::Off);
constexpr auto kOn = static_cast<uint8_t>(PlatformPower::On);
constexpr auto kBooting = static_cast<uint8_t>(PlatformPower::Booting);

/** What one tick must leave behind. */
struct Outcome
{
    ServerStateSoA servers;
    VmStateSoA vms;
    ClusterTick tick;
};

/**
 * The oracle: the per-object walk evaluateTick ran before the kernel —
 * Server::evaluate's arithmetic, verbatim, through the public API, on a
 * copy of the pre-tick state; then the live/over-CAP_LOC counts and the
 * serial fold over servers in id order.
 */
Outcome
oracleTick(const Cluster &cl, size_t tick, double alpha_v, double alpha_m)
{
    Outcome e{cl.serverState(), cl.vmState(), {}};
    ServerStateSoA &st = e.servers;
    VmStateSoA &vs = e.vms;
    auto recordServed = [&vs](VmId v, double demanded, double served,
                              double share) {
        vs.last_demanded[v] = demanded;
        vs.last_served[v] = served;
        vs.last_apparent_share[v] = share;
    };
    for (ServerId i = 0; i < cl.numServers(); ++i) {
        const Server &srv = cl.server(i);
        // Resolve a finished boot into the On state.
        if (st.power_state[i] == kBooting && tick >= st.boot_done_tick[i])
            st.power_state[i] = kOn;

        ServerTick out;
        double useful = 0.0;
        double overhead = 0.0;
        for (VmId vm_id : srv.vms()) {
            const VirtualMachine &vm = cl.vm(vm_id);
            double d = vm.demandAt(tick);
            useful += d;
            overhead += alpha_v * d;
            if (vm.migrating(tick))
                overhead += alpha_m * d;
        }
        out.demanded_useful = useful;

        const uint8_t state = st.power_state[i];
        if (state == kOff) {
            EXPECT_TRUE(srv.vms().empty()) << "server " << i;
            out.power = srv.spec().offWatts();
        } else if (state == kBooting) {
            out.power = srv.model().idlePower(0);
            for (VmId vm_id : srv.vms())
                recordServed(vm_id, cl.vm(vm_id).demandAt(tick), 0.0, 0.0);
        } else {
            const size_t p = st.pstate[i];
            double capacity = srv.spec().pstates().relSpeed(p);
            if (st.mem_low_power[i])
                capacity *= 1.0 - Server::kMemCapacityCost;
            double total_load = useful + overhead;
            double served_frac =
                total_load > capacity && total_load > 0.0
                    ? capacity / total_load
                    : 1.0;
            out.served_useful = useful * served_frac;
            out.real_util = std::min(total_load, capacity);
            out.apparent_util =
                capacity > 0.0 ? std::min(1.0, total_load / capacity) : 1.0;
            out.power = srv.model().powerAt(p, out.apparent_util);
            if (st.mem_low_power[i])
                out.power *= 1.0 - Server::kMemPowerTrim;
            for (VmId vm_id : srv.vms()) {
                const VirtualMachine &vm = cl.vm(vm_id);
                double d = vm.demandAt(tick);
                double load = d * (1.0 + alpha_v) +
                              (vm.migrating(tick) ? alpha_m * d : 0.0);
                double apparent_share =
                    capacity > 0.0 ? load * served_frac / capacity : 0.0;
                recordServed(vm_id, d, d * served_frac, apparent_share);
            }
        }
        st.power[i] = out.power;
        st.apparent_util[i] = out.apparent_util;
        st.real_util[i] = out.real_util;
        st.demanded_useful[i] = out.demanded_useful;
        st.served_useful[i] = out.served_useful;
    }

    ClusterTick &t = e.tick;
    t.enclosure_power.assign(cl.numEnclosures(), 0.0);
    for (ServerId i = 0; i < cl.numServers(); ++i) {
        if (st.power_state[i] != kOff) {
            ++t.live_servers;
            t.over_cap_loc +=
                st.power[i] > cl.capLoc(i) + Cluster::kBudgetSlack ? 1 : 0;
        }
        t.total_power += st.power[i];
        t.demanded_useful += st.demanded_useful[i];
        t.served_useful += st.served_useful[i];
        EnclosureId enc = cl.enclosureOf(i);
        if (enc != Cluster::kNoEnclosure)
            t.enclosure_power[enc] += st.power[i];
    }
    return e;
}

/** Bit-equality of two double columns, naming the first difference. */
void
expectBits(const std::vector<double> &want, const std::vector<double> &got,
           const char *column)
{
    ASSERT_EQ(want.size(), got.size()) << column;
    for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(want[i]),
                  std::bit_cast<uint64_t>(got[i]))
            << column << "[" << i << "]: " << want[i] << " vs " << got[i];
    }
}

void
expectSame(const Outcome &want, const Cluster &cl, const ClusterTick &got)
{
    const ServerStateSoA &st = cl.serverState();
    const VmStateSoA &vs = cl.vmState();
    EXPECT_EQ(want.servers.power_state, st.power_state);
    EXPECT_EQ(want.servers.boot_done_tick, st.boot_done_tick);
    EXPECT_EQ(want.servers.ever_off, st.ever_off);
    EXPECT_EQ(want.servers.pstate, st.pstate);
    EXPECT_EQ(want.servers.mem_low_power, st.mem_low_power);
    expectBits(want.servers.power, st.power, "power");
    expectBits(want.servers.apparent_util, st.apparent_util,
               "apparent_util");
    expectBits(want.servers.real_util, st.real_util, "real_util");
    expectBits(want.servers.demanded_useful, st.demanded_useful,
               "demanded_useful");
    expectBits(want.servers.served_useful, st.served_useful,
               "served_useful");
    EXPECT_EQ(want.vms.migrating_until, vs.migrating_until);
    expectBits(want.vms.last_demanded, vs.last_demanded, "last_demanded");
    expectBits(want.vms.last_served, vs.last_served, "last_served");
    expectBits(want.vms.last_apparent_share, vs.last_apparent_share,
               "last_apparent_share");

    const ClusterTick &t = want.tick;
    expectBits({t.total_power, t.demanded_useful, t.served_useful},
               {got.total_power, got.demanded_useful, got.served_useful},
               "cluster sums");
    expectBits(t.enclosure_power, got.enclosure_power, "enclosure_power");
    EXPECT_EQ(t.live_servers, got.live_servers);
    EXPECT_EQ(t.over_cap_loc, got.over_cap_loc);
}

/** How often the random walk reached each case the kernel branches on. */
struct Coverage
{
    size_t booting_before_done = 0;
    size_t booting_resolved = 0;
    size_t booting_with_vms = 0;
    size_t off = 0;
    size_t mem_low = 0;
    size_t migrating = 0;
    size_t multi_vm_out_of_order = 0;
    size_t empty_on = 0;
    size_t saturated = 0;
    size_t external = 0;
    size_t restores = 0;
};

void
observe(const Cluster &cl, size_t tick, Coverage &cov)
{
    const ServerStateSoA &st = cl.serverState();
    for (ServerId i = 0; i < cl.numServers(); ++i) {
        const Server &srv = cl.server(i);
        if (st.power_state[i] == kBooting) {
            if (tick < st.boot_done_tick[i])
                ++cov.booting_before_done;
            else
                ++cov.booting_resolved;
            cov.booting_with_vms += srv.vms().empty() ? 0 : 1;
        }
        cov.off += st.power_state[i] == kOff ? 1 : 0;
        cov.mem_low += st.mem_low_power[i] != 0 ? 1 : 0;
        cov.empty_on += st.power_state[i] == kOn && srv.vms().empty();
        if (srv.vms().size() > 1 &&
            !std::is_sorted(srv.vms().begin(), srv.vms().end()))
            ++cov.multi_vm_out_of_order;
        for (VmId v : srv.vms())
            cov.migrating += cl.vm(v).migrating(tick) ? 1 : 0;
    }
}

UtilizationTrace
randomTrace(Rng &rng, const std::string &name)
{
    std::vector<double> v(1 + rng.below(12));
    for (double &x : v) {
        const double u = rng.uniform();
        x = u < 0.1 ? 0.0 : u < 0.2 ? rng.uniform(1.0, 1.8)
                                    : rng.uniform(0.0, 0.9);
    }
    return UtilizationTrace(name, WorkloadClass::Batch, std::move(v));
}

/** Everything a cluster is built from, so it can be rebuilt to restore. */
struct Build
{
    Topology topo;
    std::vector<SpecPtr> specs;
    std::vector<UtilizationTrace> traces;
    double alpha_v = 0.0;
    double alpha_m = 0.0;
    bool external = false;

    std::unique_ptr<Cluster>
    make() const
    {
        auto cl = std::make_unique<Cluster>(topo, specs, traces,
                                            BudgetConfig::paper201510(),
                                            alpha_v, alpha_m);
        if (external)
            cl->enableExternalDemand();
        return cl;
    }
};

Build
randomBuild(Rng &rng, const std::vector<SpecPtr> &kinds)
{
    Build b;
    const unsigned servers = 1 + static_cast<unsigned>(rng.below(40));
    const unsigned enc_size = 1 + static_cast<unsigned>(rng.below(6));
    b.topo = Topology{servers,
                      static_cast<unsigned>(rng.below(servers / enc_size + 1)),
                      enc_size};
    for (unsigned i = 0; i < servers; ++i)
        b.specs.push_back(kinds[rng.below(kinds.size())]);
    const size_t vms = rng.below(servers + 1);
    for (size_t v = 0; v < vms; ++v)
        b.traces.push_back(randomTrace(rng, "vm" + std::to_string(v)));
    b.alpha_v = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.3);
    b.alpha_m = rng.uniform(0.0, 0.3);
    b.external = rng.bernoulli(0.3);
    return b;
}

/** A random server that may take a VM (any not powered off), or
 * kNoServer when every server is off. */
ServerId
hostFor(Rng &rng, const Cluster &cl, size_t tick)
{
    std::vector<ServerId> hosts;
    for (ServerId s = 0; s < cl.numServers(); ++s) {
        if (cl.server(s).platformPower(tick) != PlatformPower::Off)
            hosts.push_back(s);
    }
    return hosts.empty() ? kNoServer : hosts[rng.below(hosts.size())];
}

/** Random placement, power, actuator and demand changes between ticks. */
void
perturb(Rng &rng, Build &b, Cluster &cl, size_t tick)
{
    const size_t n = cl.numServers();
    const size_t moves = rng.below(4);
    for (size_t m = 0; m < moves && cl.numVms() > 0; ++m) {
        const auto v = static_cast<VmId>(rng.below(cl.numVms()));
        const ServerId dst = hostFor(rng, cl, tick);
        if (dst == kNoServer)
            break;
        switch (rng.below(3)) {
        case 0:
            cl.placeVm(v, dst);
            break;
        case 1:
            cl.migrateVm(v, dst, tick, rng.below(5));
            break;
        default:
            b.traces[v] = randomTrace(rng, "swap" + std::to_string(tick));
            cl.replaceVm(v, b.traces[v]);
            break;
        }
    }
    for (ServerId s = 0; s < n; ++s) {
        Server &srv = cl.server(s);
        if (rng.bernoulli(0.15))
            srv.setPState(rng.below(srv.spec().pstates().size()));
        if (rng.bernoulli(0.1))
            srv.setMemLowPower(!srv.memLowPower());
        if (rng.bernoulli(0.08) && srv.vms().empty())
            srv.powerOff();
        else if (rng.bernoulli(0.2))
            srv.powerOn(tick);
    }
    if (cl.externalDemand()) {
        for (double &d : cl.stagedDemand()) {
            const double u = rng.uniform();
            d = u < 0.15 ? 0.0 : u < 0.3 ? rng.uniform(1.0, 2.5)
                                         : rng.uniform(0.0, 1.0);
        }
    }
}

/** Save @p cl and load the bytes into a fresh build of @p b. */
std::unique_ptr<Cluster>
restored(const Build &b, Cluster &cl)
{
    nps::ckpt::SectionWriter w;
    cl.saveState(w);
    std::unique_ptr<Cluster> back = b.make();
    nps::ckpt::SectionReader r("cluster", w.bytes());
    back->loadState(r);
    r.expectEnd();
    if (cl.externalDemand())
        back->stagedDemand() = cl.stagedDemand();
    return back;
}

TEST(PlantFuzz, KernelMatchesThePerObjectWalk)
{
    const MachineSpec blade = nps::model::bladeA();
    const MachineSpec server = nps::model::serverB();
    const std::vector<SpecPtr> kinds = {
        std::make_shared<const MachineSpec>(blade),
        std::make_shared<const MachineSpec>(server),
        std::make_shared<const MachineSpec>(blade.extremesOnly()),
        std::make_shared<const MachineSpec>(
            "ServerB-135", server.pstates().subset({1, 3, 5}), 9.0, 2),
        std::make_shared<const MachineSpec>(
            "BladeA-fastboot", blade.pstates().subset({0, 2, 3, 4}), 1.5,
            1),
    };
    ThreadPool p1(1), p2(2), p3(3), p4(4), p8(8);
    ThreadPool *const pools[] = {nullptr, &p1, &p2, &p3, &p4, &p8};

    Rng rng(20080301);
    Coverage cov;
    for (int inst = 0; inst < 150; ++inst) {
        Build b = randomBuild(rng, kinds);
        std::unique_ptr<Cluster> cl = b.make();
        cov.external += b.external ? 1 : 0;
        for (size_t tick = 0; tick < 24; ++tick) {
            if (tick > 0)
                perturb(rng, b, *cl, tick);
            if (tick == 12 || rng.bernoulli(0.05)) {
                cl = restored(b, *cl);
                ++cov.restores;
            }
            observe(*cl, tick, cov);
            ThreadPool *pool = pools[rng.below(std::size(pools))];
            const Outcome want = oracleTick(*cl, tick, b.alpha_v, b.alpha_m);
            const ClusterTick &got = cl->evaluateTick(tick, pool);
            expectSame(want, *cl, got);
            if (::testing::Test::HasFailure()) {
                ADD_FAILURE() << "instance " << inst << " tick " << tick
                              << " pool "
                              << (pool ? pool->size() : 0u);
                return;
            }
            const ServerStateSoA &st = cl->serverState();
            for (ServerId i = 0; i < cl->numServers(); ++i) {
                const double cap = cl->server(i).spec().pstates().relSpeed(
                    st.pstate[i]);
                cov.saturated += st.real_util[i] >= cap ? 1 : 0;
            }
        }
    }
    EXPECT_GT(cov.booting_before_done, 0u);
    EXPECT_GT(cov.booting_resolved, 0u);
    EXPECT_GT(cov.booting_with_vms, 0u);
    EXPECT_GT(cov.off, 0u);
    EXPECT_GT(cov.mem_low, 0u);
    EXPECT_GT(cov.migrating, 0u);
    EXPECT_GT(cov.multi_vm_out_of_order, 0u);
    EXPECT_GT(cov.empty_on, 0u);
    EXPECT_GT(cov.saturated, 0u);
    EXPECT_GT(cov.external, 0u);
    EXPECT_GT(cov.restores, 0u);
}

TEST(PlantFuzz, EveryPoolSizeAgreesOnALoadedFleet)
{
    // One skewed fleet: most VMs packed onto the lowest server ids, as
    // the VMC leaves them, so the work-balanced cuts differ from id
    // cuts. Every pool size must give the same bits.
    Rng rng(7);
    const unsigned servers = 257;
    std::vector<UtilizationTrace> traces;
    for (unsigned v = 0; v < servers; ++v)
        traces.push_back(randomTrace(rng, "vm" + std::to_string(v)));
    auto build = [&] {
        return std::make_unique<Cluster>(Topology{servers, 12, 20},
                                         nps::model::bladeA(), traces,
                                         BudgetConfig::paper201510(), 0.1,
                                         0.1);
    };
    std::vector<std::unique_ptr<Cluster>> clusters;
    for (int k = 0; k < 6; ++k)
        clusters.push_back(build());
    std::vector<ServerId> host(servers);
    for (VmId v = 0; v < servers; ++v)
        host[v] = static_cast<ServerId>(rng.below(1 + v % 40));
    for (auto &cl : clusters) {
        for (VmId v = servers; v-- > 0;)
            cl->migrateVm(v, host[v], 0, 3);
    }
    ThreadPool p1(1), p2(2), p3(3), p4(4), p8(8);
    ThreadPool *const pools[] = {nullptr, &p1, &p2, &p3, &p4, &p8};
    for (size_t tick = 0; tick < 10; ++tick) {
        const Outcome want = oracleTick(*clusters[0], tick, 0.1, 0.1);
        for (size_t k = 0; k < clusters.size(); ++k) {
            const ClusterTick &got = clusters[k]->evaluateTick(tick, pools[k]);
            expectSame(want, *clusters[k], got);
        }
    }
}

TEST(PlantFuzzDeathTest, OffServerHostingVmsPanics)
{
    Cluster cl(Topology{4, 1, 2}, nps::model::bladeA(),
               {UtilizationTrace("a", WorkloadClass::Batch, {0.3}),
                UtilizationTrace("b", WorkloadClass::Batch, {0.4})},
               BudgetConfig::paper201510(), 0.1, 0.1);
    cl.evaluateTick(0);
    cl.server(3).powerOff();
    cl.placeVm(1, 3);
    EXPECT_DEATH(cl.evaluateTick(1), "Server 3: off but hosting VMs");
}

TEST(PlantFuzzDeathTest, NegativeStagedDemandPanicsInPowerAt)
{
    // The stream layer drops such samples before staging them; the plant
    // itself still refuses a utilization outside [0,1].
    Cluster cl(Topology{2, 0, 0}, nps::model::bladeA(),
               {UtilizationTrace("a", WorkloadClass::Batch, {0.3})},
               BudgetConfig::paper201510(), 0.1, 0.1);
    cl.enableExternalDemand();
    cl.stagedDemand()[0] = -1.0;
    EXPECT_DEATH(cl.evaluateTick(0), "utilization out of \\[0,1\\]");
}

} // namespace
