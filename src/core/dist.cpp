#include "core/dist.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <signal.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "ckpt/atomic_io.h"
#include "ckpt/snapshot.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "fault/netem/netem.h"
#include "fault/netem/transport.h"
#include "model/machine.h"
#include "obs/live/agg.h"
#include "obs/live/exporter.h"
#include "obs/live/publisher.h"
#include "sim/recorder.h"
#include "stream/net.h"
#include "stream/socket_transport.h"
#include "trace/workload.h"
#include "util/logging.h"

namespace nps {
namespace core {
namespace dist {

namespace {

/**
 * The materialized experiment every process of a distributed run builds
 * identically: one plan in, the same config, topology, machine and
 * traces out everywhere — the precondition for lockstep replication.
 */
struct Experiment
{
    CoordinationConfig cfg;
    sim::Topology topo;
    model::MachineSpec machine;
    std::vector<trace::UtilizationTrace> traces;
};

CoordinationConfig
configForScenario(const std::string &name)
{
    // The same scenario catalogue npsim exposes as --scenario; a plan
    // must not accept names the flag would reject.
    if (name == "coordinated")
        return coordinatedConfig();
    if (name == "uncoordinated")
        return uncoordinatedConfig();
    if (name == "baseline")
        return baselineConfig();
    if (name == "novmc")
        return scenarioConfig(Scenario::NoVmc);
    if (name == "vmconly")
        return scenarioConfig(Scenario::VmcOnly);
    if (name == "appr-util")
        return scenarioConfig(Scenario::CoordApparentUtil);
    if (name == "no-feedback")
        return scenarioConfig(Scenario::CoordNoFeedback);
    if (name == "no-budget-limits")
        return scenarioConfig(Scenario::CoordNoBudgetLimits);
    util::fatal("plan: unknown scenario '%s'", name.c_str());
}

sim::BudgetConfig
budgetsForName(const std::string &name)
{
    if (name == "20-15-10")
        return sim::BudgetConfig::paper201510();
    if (name == "25-20-15")
        return sim::BudgetConfig::paper252015();
    if (name == "30-25-20")
        return sim::BudgetConfig::paper302520();
    util::fatal("plan: unknown budgets '%s'", name.c_str());
}

trace::Mix
mixForName(const std::string &name)
{
    for (auto mix : trace::allMixes()) {
        if (name == trace::mixName(mix))
            return mix;
    }
    util::fatal("plan: unknown mix '%s'", name.c_str());
}

Experiment
materialize(const DistPlan &plan, unsigned threads_override)
{
    CoordinationConfig cfg = configForScenario(plan.scenario);
    cfg.budgets = budgetsForName(plan.budgets);
    cfg.threads = threads_override ? threads_override : plan.threads;
    // Arm the budget leases in *every* process of the plan, the oracle
    // included: identical configs are what make the oracle's CSV a
    // meaningful byte-for-byte reference (core/config.cpp).
    cfg.distributed = true;
    // Observability is likewise plan-wide: every replica must register
    // the identical instrument set or the cross-rank digest check
    // (obs/live/agg.h) would report a desync that is really a config
    // mismatch.
    if (plan.obs_metrics)
        cfg.observability.metrics = true;
    if (plan.obs_cascade)
        cfg.observability.cascade = true;

    trace::GeneratorConfig gen;
    gen.seed = plan.seed;
    trace::WorkloadLibrary library(gen);
    trace::Mix mix = mixForName(plan.mix);

    Experiment ex{std::move(cfg), ExperimentRunner::topologyFor(mix),
                  model::machineByName(plan.machine), library.mix(mix)};
    ex.topo.validate();
    return ex;
}

/**
 * Every runtime attaches a Recorder unconditionally (output may be
 * discarded): the engine roster must be identical across the oracle,
 * the supervisor and every child, or a restart snapshot taken in one
 * process could not restore into another.
 */
std::shared_ptr<sim::Recorder>
attachRecorder(Coordinator &coordinator, const DistPlan &plan)
{
    sim::Recorder::Options opts;
    opts.stride = plan.record_stride;
    auto recorder = std::make_shared<sim::Recorder>(coordinator.cluster(),
                                                    opts);
    recorder->setFaultInjector(coordinator.faultInjector());
    coordinator.engine().addActor(recorder);
    return recorder;
}

void
writeRecordCsv(const sim::Recorder &recorder, const std::string &path)
{
    if (path.empty())
        return;
    std::ostringstream out;
    recorder.writeCsv(out);
    ckpt::writeFileAtomic(path, out.str());
    std::printf("record: wrote %zu samples to %s\n", recorder.samples(),
                path.c_str());
}

/**
 * One process's half of the live observability plane: the optional
 * HTTP exporter plus the per-tick publisher (also the owner of the
 * always-on runtime tick-latency histogram). Everything is null when
 * the plan has no metrics registry.
 */
struct LivePlane
{
    std::unique_ptr<obs::live::LiveExporter> exporter;
    std::unique_ptr<obs::live::LivePublisher> publisher;
    unsigned linger_ms = 0;
};

LivePlane
attachLivePlane(Coordinator &coordinator, const DistPlan &plan,
                const ObsOutputs &obs, int rank)
{
    LivePlane lp;
    obs::MetricsRegistry *reg =
        coordinator.observability()
            ? coordinator.observability()->metrics()
            : nullptr;
    if (!reg)
        return lp;
    const std::string spec =
        !obs.http.empty() ? obs.http : plan.obsHttpFor(rank);
    if (!spec.empty())
        lp.exporter =
            std::make_unique<obs::live::LiveExporter>(spec, rank);
    lp.publisher = std::make_unique<obs::live::LivePublisher>(
        reg, coordinator.profiler(),
        [&coordinator] { coordinator.updateRunGauges(); },
        lp.exporter.get(), plan.obs_metrics_every, rank);
    coordinator.engine().setTickObserver(lp.publisher.get());
    lp.linger_ms =
        obs.http_linger_ms ? obs.http_linger_ms : plan.obs_http_linger_ms;
    return lp;
}

/**
 * End-of-run observability epilogue, shared by all three runtimes:
 * refresh the run gauges one last time, publish the final snapshot
 * (so the last scrape and the export files agree byte for byte),
 * write the requested exports, then linger for late scrapers.
 */
void
finishObs(Coordinator &coordinator, const LivePlane &lp,
          const ObsOutputs &obs, uint64_t final_tick)
{
    coordinator.updateRunGauges();
    if (lp.publisher)
        lp.publisher->publishFinal(final_tick);
    if (!obs.metrics_path.empty()) {
        if (!lp.publisher)
            util::fatal("dist: --metrics needs an [obs] section in the "
                        "plan (every replica must carry the registry)");
        ckpt::writeFileAtomic(obs.metrics_path,
                              lp.publisher->render(final_tick, true).prom);
        std::printf("metrics: wrote %s\n", obs.metrics_path.c_str());
    }
    if (!obs.cascade_path.empty()) {
        if (!coordinator.config().observability.cascade)
            util::fatal("dist: --cascade needs cascade = true in the "
                        "plan's [obs] section");
        const bus::ControlPlaneLog *log = coordinator.controlLog();
        std::ostringstream out;
        log->writeCascadeCsv(out);
        ckpt::writeFileAtomic(obs.cascade_path, out.str());
        std::printf("cascade: wrote %zu hops to %s\n",
                    log->tracedEvents(), obs.cascade_path.c_str());
    }
    if (lp.exporter)
        lp.exporter->linger(lp.linger_ms);
    coordinator.engine().setTickObserver(nullptr);
}

/** Milliseconds elapsed since @p start (runtime instrumentation). */
double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
printSummary(const Coordinator &coordinator, const DistPlan &plan,
             size_t ran)
{
    sim::MetricsSummary m = coordinator.summary();
    std::printf("plan: scenario=%s machine=%s mix=%s budgets=%s "
                "ticks=%zu ranks=%zu\n",
                plan.scenario.c_str(), plan.machine.c_str(),
                plan.mix.c_str(), plan.budgets.c_str(), ran,
                plan.nodes.size() + 1);
    std::printf("power:  mean %.1f W, peak %.1f W\n", m.mean_power,
                m.peak_power);
    std::printf("perf:   loss %.3f %%\n", m.perf_loss * 100.0);
    const fault::DegradeStats &d = m.degrade;
    std::printf("degrade: %llu dropped, %llu stale, %llu lease "
                "expiries, %llu fallback steps, %llu restarts\n",
                (unsigned long long)d.dropped_budgets,
                (unsigned long long)d.stale_budgets,
                (unsigned long long)d.lease_expiries,
                (unsigned long long)d.lease_fallback_steps,
                (unsigned long long)d.restarts);
    if (plan.netem)
        std::printf("netem:  %llu delayed, %llu late, %llu expired, "
                    "%llu partition drops, %llu reorder drops\n",
                    (unsigned long long)d.netem_delayed,
                    (unsigned long long)d.netem_late_deliveries,
                    (unsigned long long)d.netem_expired,
                    (unsigned long long)d.netem_partition_drops,
                    (unsigned long long)d.netem_reorder_drops);
}

/** The plan's netem oracle (empty model when the plan has no [netem]). */
fault::netem::NetemModel
netemModelFor(const DistPlan &plan)
{
    return fault::netem::NetemModel(
        fault::netem::NetemSchedule::parse(plan.netem_script),
        plan.netem_seed, plan.netem_deadline);
}

/**
 * The after-drain hook publishing the deterministic netem gauges.
 * Registered on every rank — and on the --plan oracle — whenever the
 * plan has both [netem] and [obs], so the instrument set (and the
 * cross-rank digest) stays aligned. Values are set at the drain point
 * of each tick, which every replica reaches with identical counters:
 * the gauges are digest-comparable, unlike the wire-local dup/corrupt
 * tallies, which stay out of this set (they only tick on the one
 * process that wrote the mangled frame).
 */
std::function<void(size_t)>
netemGaugeHook(fault::netem::NetemTransport &net,
               obs::MetricsRegistry *reg)
{
    if (!reg)
        return nullptr;
    obs::Gauge *delayed =
        reg->gauge("nps_net_delayed", "wire",
                   "Sends parked on the netem virtual wire so far");
    obs::Gauge *late =
        reg->gauge("nps_net_late_deliveries", "wire",
                   "Delayed sends that reached their sink late");
    obs::Gauge *expired =
        reg->gauge("nps_net_expired", "wire",
                   "Delayed sends dropped for missing the deadline");
    obs::Gauge *partition =
        reg->gauge("nps_net_partition_drops", "wire",
                   "Sends dropped by a scripted partition");
    obs::Gauge *reorder =
        reg->gauge("nps_net_reorder_drops", "wire",
                   "Late sends discarded because a fresher one landed");
    obs::Gauge *queued =
        reg->gauge("nps_net_queue_depth", "wire",
                   "Sends currently parked on the virtual wire");
    obs::Gauge *active =
        reg->gauge("nps_net_active_events", "wire",
                   "Netem schedule events active this tick");
    return [&net, delayed, late, expired, partition, reorder, queued,
            active](size_t tick) {
        const fault::netem::NetemTransport::Stats &s = net.stats();
        delayed->set(static_cast<double>(s.delayed));
        late->set(static_cast<double>(s.late_deliveries));
        expired->set(static_cast<double>(s.expired));
        partition->set(static_cast<double>(s.partition_drops));
        reorder->set(static_cast<double>(s.reorder_drops));
        queued->set(static_cast<double>(net.queued()));
        active->set(static_cast<double>(net.model().activeCount(tick)));
    };
}

/** Directory holding the running binary (to find npsnode next to it). */
std::string
selfDir()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        util::fatal("dist: readlink(/proc/self/exe): %s",
                    std::strerror(errno));
    buf[n] = '\0';
    std::string path(buf);
    std::string::size_type slash = path.rfind('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

/** Leaf tick gate: report the previous tick, wait for this one. */
class NodeGate : public sim::TickSource
{
  public:
    /**
     * @p on_report fires for every completed tick right before its
     * tick-done goes out (the metrics-snapshot hook: an 'M' frame must
     * precede its barrier 'D' on the wire). @p barrier_ms, when
     * non-null, records the wall time spent waiting for each release.
     */
    NodeGate(stream::SocketTransport &transport,
             std::function<void(uint64_t)> on_report = nullptr,
             obs::Histogram *barrier_ms = nullptr)
        : transport_(transport), on_report_(std::move(on_report)),
          barrier_ms_(barrier_ms)
    {
    }

    bool beginTick(size_t tick) override
    {
        // The first gated tick has nothing to report: a fresh child
        // reported nothing yet, a restored one resumes at a tick whose
        // predecessor the supervisor's own replica already covered.
        if (started_) {
            if (on_report_)
                on_report_(tick - 1);
            transport_.sendTickDone(tick - 1);
        }
        started_ = true;
        auto start = std::chrono::steady_clock::now();
        bool released = transport_.waitTickStart(tick);
        if (barrier_ms_)
            barrier_ms_->observe(msSince(start));
        return released;
    }

  private:
    stream::SocketTransport &transport_;
    std::function<void(uint64_t)> on_report_;
    obs::Histogram *barrier_ms_;
    bool started_ = false;
};

/**
 * Rank 0's tick gate and process manager: collects the barrier,
 * executes scheduled kills, restarts dead ranks from snapshots, and
 * releases each tick to the children.
 */
class SupervisorGate : public sim::TickSource
{
  public:
    SupervisorGate(const DistPlan &plan, const std::string &plan_path,
                   Coordinator &coordinator, sim::Recorder &recorder,
                   stream::SocketTransport &transport, int listener)
        : plan_(plan), plan_path_(plan_path), coordinator_(coordinator),
          recorder_(recorder), transport_(transport), listener_(listener)
    {
    }

    /** Spawn every [node] child and collect their join handshakes. */
    void spawnAll()
    {
        for (size_t n = 0; n < plan_.nodes.size(); ++n)
            spawn(static_cast<int>(n) + 1, "");
        for (size_t n = 0; n < plan_.nodes.size(); ++n) {
            int rank = transport_.acceptPeer(listener_);
            std::fprintf(stderr, "npsim: rank %d (%s) joined\n", rank,
                         plan_.nodes[static_cast<size_t>(rank) - 1]
                             .name.c_str());
        }
    }

    /** Record barrier waits into @p barrier_ms (may stay null). */
    void setBarrierHistogram(obs::Histogram *barrier_ms)
    {
        barrier_ms_ = barrier_ms;
    }

    /**
     * Run @p hook at every barrier, after all alive ranks reported the
     * completed tick (its argument) and this replica has finished it
     * too — the only point where every rank's metrics snapshot of that
     * tick is both present and comparable against local state.
     */
    void setBarrierHook(std::function<void(uint64_t)> hook)
    {
        barrier_hook_ = std::move(hook);
    }

    /**
     * Include the netem delivery queue in restart snapshots. The gate
     * runs *inside* the NetemGate wrapper, so a snapshot taken here
     * captures the queue before this tick's drain — and the restored
     * child, whose first drain covers the same tick, replays exactly
     * the deliveries this replica is about to make.
     */
    void setNetem(fault::netem::NetemTransport *netem) { netem_ = netem; }

    bool beginTick(size_t tick) override
    {
        if (started_) {
            auto start = std::chrono::steady_clock::now();
            for (size_t n = 0; n < plan_.nodes.size(); ++n) {
                int rank = static_cast<int>(n) + 1;
                if (transport_.alive(rank))
                    transport_.waitTickDone(rank, tick - 1);
            }
            if (barrier_ms_)
                barrier_ms_->observe(msSince(start));
            if (barrier_hook_)
                barrier_hook_(tick - 1);
        }
        started_ = true;
        for (const auto &kill : plan_.kills) {
            if (kill.tick == tick)
                executeKill(kill.rank, tick);
        }
        for (auto it = restart_at_.begin(); it != restart_at_.end();) {
            if (it->second == tick) {
                restart(it->first, tick);
                it = restart_at_.erase(it);
            } else {
                ++it;
            }
        }
        transport_.broadcastTickStart(tick);
        return true;
    }

    /** Final barrier: collect the last tick, say bye, reap children. */
    void finish(uint64_t final_tick)
    {
        for (size_t n = 0; n < plan_.nodes.size(); ++n) {
            int rank = static_cast<int>(n) + 1;
            if (transport_.alive(rank))
                transport_.waitTickDone(rank, final_tick);
        }
        if (barrier_hook_)
            barrier_hook_(final_tick);
        transport_.broadcastBye(final_tick + 1);
        for (auto &entry : pids_) {
            int status = 0;
            ::waitpid(entry.second, &status, 0);
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                util::fatal("dist: rank %d (pid %ld) exited "
                            "abnormally", entry.first,
                            static_cast<long>(entry.second));
        }
        pids_.clear();
    }

  private:
    void spawn(int rank, const std::string &restore)
    {
        const std::string npsnode = selfDir() + "/npsnode";
        const std::string rank_str = std::to_string(rank);
        pid_t pid = ::fork();
        if (pid < 0)
            util::fatal("dist: fork: %s", std::strerror(errno));
        if (pid == 0) {
            std::vector<const char *> argv{
                npsnode.c_str(), "--plan", plan_path_.c_str(), "--rank",
                rank_str.c_str()};
            if (!restore.empty()) {
                argv.push_back("--restore");
                argv.push_back(restore.c_str());
            }
            argv.push_back(nullptr);
            ::execv(npsnode.c_str(),
                    const_cast<char *const *>(argv.data()));
            std::fprintf(stderr, "npsim: cannot exec %s: %s\n",
                         npsnode.c_str(), std::strerror(errno));
            ::_exit(127);
        }
        pids_[rank] = pid;
    }

    void executeKill(int rank, size_t tick)
    {
        auto it = pids_.find(rank);
        if (it == pids_.end())
            return; // already dead (two kills on one rank)
        ::kill(it->second, SIGKILL);
        int status = 0;
        ::waitpid(it->second, &status, 0);
        std::fprintf(stderr, "npsim: killed rank %d (pid %ld) at tick "
                             "%zu\n",
                     rank, static_cast<long>(it->second), tick);
        pids_.erase(it);
        if (plan_.restart_after > 0 &&
            tick + plan_.restart_after < plan_.ticks)
            restart_at_[rank] = tick + plan_.restart_after;
    }

    void restart(int rank, size_t tick)
    {
        // The supervisor's replica *is* the authoritative state of a
        // dead rank's levels: snapshot it and let the fresh child
        // restore the whole engine, seq counters included, so it
        // rejoins the lockstep mid-run.
        const std::string snap = snapshotPath(rank);
        ckpt::SnapshotWriter out;
        coordinator_.saveState(out);
        recorder_.saveState(out.section("recorder"));
        if (netem_)
            netem_->saveState(out.section("netem"));
        out.writeFile(snap);
        spawn(rank, snap);
        int joined = transport_.acceptPeer(listener_);
        if (joined != rank)
            util::fatal("dist: expected restarted rank %d, got %d",
                        rank, joined);
        transport_.syncLiveness(rank);
        transport_.broadcastPeerUp(rank, tick);
        std::fprintf(stderr, "npsim: restarted rank %d at tick %zu "
                             "from %s\n",
                     rank, tick, snap.c_str());
    }

    std::string snapshotPath(int rank) const
    {
        // Unix plans park snapshots next to the socket (the run's
        // scratch directory); tcp plans fall back to the cwd.
        const std::string stem = plan_.transport == "unix"
                                     ? plan_.socket
                                     : std::string("npsdist");
        return stem + ".restart-r" + std::to_string(rank) + ".nps";
    }

    const DistPlan &plan_;
    std::string plan_path_;
    Coordinator &coordinator_;
    sim::Recorder &recorder_;
    stream::SocketTransport &transport_;
    int listener_;
    fault::netem::NetemTransport *netem_ = nullptr;
    obs::Histogram *barrier_ms_ = nullptr;
    std::function<void(uint64_t)> barrier_hook_;
    bool started_ = false;
    std::map<int, pid_t> pids_;
    std::map<int, uint64_t> restart_at_;
};

} // namespace

int
runPlanSingle(const DistPlan &plan, const std::string &record_path,
              unsigned threads, const ObsOutputs &obs)
{
    Experiment ex = materialize(plan, threads);
    Coordinator coordinator(ex.cfg, ex.topo, ex.machine, ex.traces);
    auto recorder = attachRecorder(coordinator, plan);

    // The netem oracle: the same model the distributed runtime applies,
    // over the identity transport. Owners come from the plan's node
    // table (not localOwner) so rank:N netem targets resolve to the
    // same links they would in the process tree — the precondition for
    // the byte-identity this runtime is the reference for.
    bus::InProcTransport inproc;
    std::unique_ptr<fault::netem::NetemTransport> netem;
    std::unique_ptr<fault::netem::NetemGate> netem_gate;
    if (plan.netem) {
        netem = std::make_unique<fault::netem::NetemTransport>(
            netemModelFor(plan), &inproc);
        coordinator.attachTransport(netem.get(), plan.ownerFn());
    }

    LivePlane lp = attachLivePlane(coordinator, plan, obs, 0);
    if (netem) {
        obs::MetricsRegistry *reg =
            coordinator.observability()
                ? coordinator.observability()->metrics()
                : nullptr;
        netem_gate = std::make_unique<fault::netem::NetemGate>(
            *netem, nullptr, netemGaugeHook(*netem, reg));
        coordinator.engine().setTickSource(netem_gate.get());
    }
    size_t ran = coordinator.run(plan.ticks);
    if (netem_gate)
        coordinator.engine().setTickSource(nullptr);
    finishObs(coordinator, lp, obs, ran ? ran - 1 : 0);
    printSummary(coordinator, plan, ran);
    writeRecordCsv(*recorder, record_path);
    return 0;
}

int
runSupervisor(const DistPlan &plan, const std::string &plan_path,
              const std::string &record_path, unsigned threads,
              const ObsOutputs &obs)
{
    // A write to a freshly-killed peer must surface as an error the
    // transport turns into a peer-down, not as a fatal SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);
    Experiment ex = materialize(plan, threads);
    const int listener = stream::listenOn(plan.endpoint());
    stream::SocketTransport transport(plan.timeout_ms);
    transport.setHeartbeat(plan.hb_ms);
    transport.setPeerTimeout(plan.peer_timeout_ms);
    Coordinator coordinator(ex.cfg, ex.topo, ex.machine, ex.traces);
    auto recorder = attachRecorder(coordinator, plan);
    std::unique_ptr<fault::netem::NetemTransport> netem;
    if (plan.netem) {
        netem = std::make_unique<fault::netem::NetemTransport>(
            netemModelFor(plan), &transport);
        transport.setWireMangler(netem.get());
        coordinator.attachTransport(netem.get(), plan.ownerFn());
    } else {
        coordinator.attachTransport(&transport, plan.ownerFn());
    }

    // Cross-rank aggregation (obs/live/agg.h): each 'M' frame is
    // digest-checked against this replica — the metrics-level desync
    // detector — then merged into the fleet view the live endpoint
    // and the end-of-run export serve.
    obs::MetricsRegistry *reg =
        coordinator.observability()
            ? coordinator.observability()->metrics()
            : nullptr;
    obs::live::FleetView fleet;
    std::map<uint32_t, std::pair<uint64_t, std::vector<uint8_t>>> pending;
    if (reg) {
        // An 'M' frame can surface mid-tick: the transport drains the
        // socket whenever a link blocks for an owner frame, possibly
        // while this replica is still stepping the same tick its
        // children already finished. Comparing registries at that
        // moment would race half-written local counters against the
        // child's completed-tick state, so the sink only buffers the
        // raw payload; the barrier hook below merges once both sides
        // have completed the tick.
        transport.setMetricsSink(
            [&pending](uint32_t rank, uint64_t tick,
                       const std::vector<uint8_t> &bytes) {
                pending[rank] = {tick, bytes};
            });
    }
    auto merge_fleet = [&](uint64_t done_tick) {
        if (!reg || pending.empty())
            return;
        coordinator.updateRunGauges();
        const std::string own = obs::live::encodeSnapshot(*reg);
        obs::live::RankSnapshot self = obs::live::decodeSnapshot(
            0, done_tick, reinterpret_cast<const uint8_t *>(own.data()),
            own.size());
        for (const auto &entry : pending) {
            if (entry.second.first != done_tick)
                util::fatal("dist: rank %u metrics snapshot is for tick "
                            "%llu at the tick-%llu barrier",
                            entry.first,
                            (unsigned long long)entry.second.first,
                            (unsigned long long)done_tick);
            obs::live::RankSnapshot snap = obs::live::decodeSnapshot(
                entry.first, entry.second.first,
                entry.second.second.data(), entry.second.second.size());
            if (snap.digest != self.digest) {
                std::string what = obs::live::diffSnapshots(snap, self);
                util::fatal("dist: metrics desync at tick %llu: rank %u "
                            "digest %08x != supervisor digest %08x — "
                            "the replicas diverged%s%s",
                            (unsigned long long)done_tick, entry.first,
                            snap.digest, self.digest,
                            what.empty() ? "" : "; first ",
                            what.c_str());
            }
            fleet.update(std::move(snap));
        }
        pending.clear();
        fleet.update(std::move(self));
    };

    LivePlane lp = attachLivePlane(coordinator, plan, obs, 0);
    if (lp.publisher)
        lp.publisher->setFleet(&fleet);
    obs::Histogram *barrier_ms =
        reg ? reg->histogram("nps_rt_barrier_wait_ms", "rank0",
                             "Wall-clock wait at the per-tick barrier "
                             "(ms)",
                             obs::MetricsRegistry::runtimeMsBounds())
            : nullptr;

    // Supervisor-side health ladder: the netem schedule names who is
    // *partitioned* (deterministic), the socket names who is live,
    // degraded (silent past the grace window) or dead (runtime). The
    // per-rank gauges are runtime families — each rank's view is
    // different by construction — and /healthz carries the same states.
    std::vector<obs::Gauge *> peer_state;
    if (reg && (plan.hb_ms || plan.peer_timeout_ms || plan.netem)) {
        for (size_t n = 0; n <= plan.nodes.size(); ++n)
            peer_state.push_back(
                reg->gauge("nps_rt_net_peer_state",
                           "rank" + std::to_string(n),
                           "Supervisor view of each rank: 0 live, "
                           "1 degraded, 2 partitioned, 3 dead"));
    }
    auto rank_state = [&](int rank, size_t tick) -> const char * {
        if (netem && netem->model().rankPartitioned(rank, tick))
            return "partitioned";
        return stream::peerHealthName(transport.peerHealth(rank));
    };
    auto update_peer_state = [&](size_t tick) {
        for (size_t n = 0; n < peer_state.size(); ++n) {
            const char *state = rank_state(static_cast<int>(n), tick);
            double code = 0.0;
            if (std::strcmp(state, "degraded") == 0)
                code = 1.0;
            else if (std::strcmp(state, "partitioned") == 0)
                code = 2.0;
            else if (std::strcmp(state, "dead") == 0)
                code = 3.0;
            peer_state[n]->set(code);
        }
    };
    if (lp.publisher && (plan.hb_ms || plan.peer_timeout_ms || plan.netem))
        lp.publisher->setHealthExtra([&]() {
            std::ostringstream out;
            out << "\"peers\": [";
            size_t tick = coordinator.engine().now();
            for (size_t n = 0; n <= plan.nodes.size(); ++n)
                out << (n ? ", " : "") << "{\"rank\": " << n
                    << ", \"state\": \""
                    << rank_state(static_cast<int>(n), tick) << "\"}";
            out << "]";
            return out.str();
        });

    SupervisorGate gate(plan, plan_path, coordinator, *recorder,
                        transport, listener);
    gate.setBarrierHistogram(barrier_ms);
    gate.setBarrierHook([&](uint64_t done_tick) {
        merge_fleet(done_tick);
        // Without a netem gate the per-rank health gauges refresh here;
        // with one, its after-drain hook owns them.
        if (!netem)
            update_peer_state(done_tick);
    });
    gate.setNetem(netem.get());
    std::unique_ptr<fault::netem::NetemGate> netem_gate;
    if (netem) {
        std::function<void(size_t)> gauges = netemGaugeHook(*netem, reg);
        netem_gate = std::make_unique<fault::netem::NetemGate>(
            *netem, &gate,
            [gauges, update_peer_state](size_t tick) {
                if (gauges)
                    gauges(tick);
                update_peer_state(tick);
            });
    }
    gate.spawnAll();
    coordinator.engine().setTickSource(
        netem_gate ? static_cast<sim::TickSource *>(netem_gate.get())
                   : &gate);
    size_t ran = coordinator.run(plan.ticks);
    if (ran != plan.ticks)
        util::fatal("dist: supervisor stopped after %zu of %zu ticks",
                    ran, plan.ticks);
    gate.finish(plan.ticks - 1);
    coordinator.engine().setTickSource(nullptr);
    ::close(listener);
    if (plan.transport == "unix")
        ::unlink(plan.socket.c_str());

    finishObs(coordinator, lp, obs, plan.ticks - 1);
    printSummary(coordinator, plan, ran);
    writeRecordCsv(*recorder, record_path);
    return 0;
}

int
runNode(const DistPlan &plan, int rank, const std::string &restore_path,
        const ObsOutputs &obs)
{
    if (rank < 1 || rank > static_cast<int>(plan.nodes.size()))
        util::fatal("npsnode: rank %d out of range 1..%zu", rank,
                    plan.nodes.size());
    ::signal(SIGPIPE, SIG_IGN); // see runSupervisor
    Experiment ex = materialize(plan, 0);
    // Bounded-backoff connect: a restarted rank may race the hub's
    // accept loop (or a netem-delayed restart may find the hub briefly
    // busy), so the join retries with exponential backoff and per-rank
    // jitter instead of a fixed poll.
    const int fd =
        plan.reconnect_attempts
            ? stream::connectWithBackoff(
                  plan.endpoint(), plan.reconnect_attempts,
                  plan.reconnect_base_ms, plan.reconnect_max_ms,
                  static_cast<uint64_t>(rank))
            : stream::connectTo(plan.endpoint(), plan.timeout_ms);
    stream::SocketTransport transport(rank, fd, plan.timeout_ms);
    transport.setHeartbeat(plan.hb_ms);
    Coordinator coordinator(ex.cfg, ex.topo, ex.machine, ex.traces);
    auto recorder = attachRecorder(coordinator, plan);
    std::unique_ptr<fault::netem::NetemTransport> netem;
    if (plan.netem) {
        netem = std::make_unique<fault::netem::NetemTransport>(
            netemModelFor(plan), &transport);
        transport.setWireMangler(netem.get());
        coordinator.attachTransport(netem.get(), plan.ownerFn());
    } else {
        coordinator.attachTransport(&transport, plan.ownerFn());
    }

    obs::MetricsRegistry *reg =
        coordinator.observability()
            ? coordinator.observability()->metrics()
            : nullptr;
    LivePlane lp = attachLivePlane(coordinator, plan, obs, rank);
    obs::Histogram *barrier_ms =
        reg ? reg->histogram("nps_rt_barrier_wait_ms",
                             "rank" + std::to_string(rank),
                             "Wall-clock wait at the per-tick barrier "
                             "(ms)",
                             obs::MetricsRegistry::runtimeMsBounds())
            : nullptr;
    // Registry snapshot shipped right before each barrier report, at
    // the plan's cadence — the supervisor consumes it at the matching
    // tick of its own replica (runSupervisor's sink). The last tick
    // always ships so the fleet view the export renders is end-of-run
    // state, whatever the cadence.
    auto ship = [&](uint64_t done_tick, bool force) {
        if (!reg ||
            (!force && done_tick % plan.obs_metrics_every != 0))
            return;
        coordinator.updateRunGauges();
        const std::string bytes = obs::live::encodeSnapshot(*reg);
        transport.sendMetricsSnapshot(
            done_tick, reinterpret_cast<const uint8_t *>(bytes.data()),
            bytes.size());
    };

    size_t done = 0;
    if (!restore_path.empty()) {
        ckpt::SnapshotReader snap;
        std::string err;
        if (!snap.load(restore_path, err))
            util::fatal("npsnode: cannot restore %s: %s",
                        restore_path.c_str(), err.c_str());
        coordinator.loadState(snap);
        ckpt::SectionReader r = snap.section("recorder");
        recorder->loadState(r);
        r.expectEnd();
        if (netem) {
            ckpt::SectionReader nr = snap.section("netem");
            netem->loadState(nr);
            nr.expectEnd();
        }
        done = coordinator.engine().now();
        std::fprintf(stderr, "npsnode: rank %d restored at tick %zu\n",
                     rank, done);
    }
    if (done >= plan.ticks)
        util::fatal("npsnode: snapshot %s is at tick %zu, beyond the "
                    "plan's %zu ticks",
                    restore_path.c_str(), done, plan.ticks);

    transport.sendJoin();
    NodeGate gate(transport,
                  [&ship](uint64_t t) { ship(t, /*force=*/false); },
                  barrier_ms);
    std::unique_ptr<fault::netem::NetemGate> netem_gate;
    if (netem)
        netem_gate = std::make_unique<fault::netem::NetemGate>(
            *netem, &gate, netemGaugeHook(*netem, reg));
    coordinator.engine().setTickSource(
        netem_gate ? static_cast<sim::TickSource *>(netem_gate.get())
                   : &gate);
    size_t ran = coordinator.run(plan.ticks - done);
    coordinator.engine().setTickSource(nullptr);
    if (transport.byeSeen())
        util::fatal("npsnode: rank %d dismissed after %zu of %zu "
                    "ticks", rank, done + ran, plan.ticks);

    // Final handshake: report the last tick, then wait for the bye so
    // the supervisor controls when the socket goes down.
    ship(plan.ticks - 1, /*force=*/true);
    transport.sendTickDone(plan.ticks - 1);
    if (transport.waitTickStart(plan.ticks))
        util::fatal("npsnode: supervisor released tick %zu past the "
                    "end of the run", plan.ticks);
    finishObs(coordinator, lp, obs, plan.ticks - 1);
    return 0;
}

} // namespace dist
} // namespace core
} // namespace nps
