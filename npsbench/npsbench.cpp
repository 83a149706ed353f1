/**
 * @file
 * npsbench: one benchmark for the batch engine, `npsim --serve` and
 * `npsim --distributed` (README.md next to this file).
 *
 * Runs one named workload, measures it from outside the program through
 * the library's public seams — Coordinator, Engine::setTickSource /
 * setTickObserver / setProfiler, stream::TelemetrySource — and the
 * npsim/npsnode binaries, checks the outputs against a reference, and
 * prints every metric by name and unit followed by one JSON line:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * A scored run (--trace 0) reports the end-to-end metrics. A traced run
 * (--trace 1) attaches an obs::EngineProfiler to every other chunk of
 * ticks, writes the bench's own spans to DIR/<workload>.spans.csv and
 * reports the per-layer metrics instead.
 *
 * Usage:
 *   npsbench --workload W --seed N [--seconds S] [--trace 0|1]
 *            [--trace-dir DIR] [--npsim PATH]
 *   npsbench --smoke        every workload at toy size, schema-checked
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "model/machine.h"
#include "obs/profiler.h"
#include "sim/fleetgen.h"
#include "sim/recorder.h"
#include "stream/feed.h"
#include "stream/frame.h"
#include "stream/net.h"
#include "stream/stream_source.h"
#include "trace/workload.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace nps;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 20080301;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

[[noreturn]] void
die(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "npsbench: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Steady-clock time point as nanoseconds, the unit of TickTimes. */
int64_t
toNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

int64_t
nowNs()
{
    return toNs(Clock::now());
}

/** Linearly interpolated quantile, as numpy's default; 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

double
rssMb(const struct rusage &ru)
{
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
selfPeakRssMb()
{
    struct rusage ru;
    if (::getrusage(RUSAGE_SELF, &ru) != 0)
        die("getrusage: %s", std::strerror(errno));
    return rssMb(ru);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Directory of the running binary; npsim and npsnode sit next to it. */
std::string
selfDir()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        die("readlink(/proc/self/exe): %s", std::strerror(errno));
    buf[n] = '\0';
    std::string path(buf);
    return path.substr(0, path.rfind('/'));
}

// ---------------------------------------------------------------------
// Metric catalogue and the result line
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    /** Belongs to one runtime's layer; reads 0 on workloads that do not
     * exercise that layer. Every other metric is measured everywhere. */
    bool layer_only = false;
};

const MetricDef kEndToEnd[] = {
    {"ns_per_server_tick", "ns"},
    {"lag_ms_p50", "ms"},
    {"lag_ms_p90", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"sim.tick_ms_p50", "ms"},
    {"sim.tick_ms_p99", "ms"},
    {"sim.tick_ms.ec", "ms"},
    {"sim.tick_ms.sm", "ms"},
    {"sim.tick_ms.em", "ms"},
    {"sim.tick_ms.gm", "ms"},
    {"sim.evaluate_ns_per_server_tick", "ns"},
    {"sim.record_us_per_tick", "us"},
    {"sim.actor_busy_frac", "ratio"},
    {"sim.profile_coverage", "ratio"},
    {"sim.inputs_s", "s"},
    {"core.build_s", "s"},
    {"controllers.ec.ns_per_call", "ns"},
    {"controllers.sm.ns_per_call", "ns"},
    {"controllers.em.us_per_call", "us"},
    {"controllers.gm.us_per_call", "us"},
    {"controllers.ec.share", "ratio"},
    {"controllers.sm.share", "ratio"},
    {"controllers.em.share", "ratio"},
    {"controllers.gm.share", "ratio"},
    {"controllers.vmc.share", "ratio"},
    {"controllers.vmc.epochs", "count", true},
    {"controllers.vmc.migrations", "count", true},
    {"stream.pull_share", "ratio", true},
    {"stream.stage_share", "ratio", true},
    {"stream.backlog_ticks_max", "count", true},
    {"feeder.busy_frac", "ratio", true},
    {"feeder.late_max_frac", "ratio", true},
    {"bus.barrier_wait_share.rank0", "ratio", true},
    {"bus.barrier_wait_share.rank1", "ratio", true},
    {"bus.barrier_wait_share.rank2", "ratio", true},
    {"bus.barrier_wait_share.rank3", "ratio", true},
    {"dist.overhead_x", "ratio", true},
    {"trace_overhead_x", "ratio"},
    {"out.mean_power_w", "W"},
    {"out.perf_loss_pct", "%"},
};

/** What one run measured and whether its outputs were right. */
class Report
{
  public:
    void put(const std::string &name, double value) { values_[name] = value; }

    /** Record a correctness check; a failed one makes the run incorrect. */
    void check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        correct_ = false;
        std::fprintf(stderr, "npsbench: check failed: %s\n", what.c_str());
    }

    bool correct() const { return correct_; }

    /** A measured value, or 0 when the workload did not set it. */
    double value(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** Operations attempted (ticks or samples) and how many failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /**
     * Print the catalogue @p layer selects, one "name value unit" line
     * each, then the JSON result line. A metric the workload did not set
     * is fatal unless it is layer_only (then it reads 0).
     */
    void print(bool layer) const
    {
        std::ostringstream json;
        json << "{\"correct\": " << (correct_ ? "true" : "false")
             << ", \"attempted\": " << attempted
             << ", \"failed\": " << failed << ", \"metrics\": {";
        bool first = true;
        auto emit = [&](const MetricDef &def) {
            auto it = values_.find(def.name);
            if (it == values_.end() && !def.layer_only)
                die("workload did not measure %s", def.name);
            const double v = it == values_.end() ? 0.0 : it->second;
            if (!std::isfinite(v))
                die("%s is not finite", def.name);
            std::printf("%-34s %18.6f %s\n", def.name, v, def.unit);
            json << (first ? "" : ", ") << util::jsonQuote(def.name)
                 << ": {\"value\": " << util::jsonNumber(v)
                 << ", \"unit\": " << util::jsonQuote(def.unit) << "}";
            first = false;
        };
        if (layer) {
            for (const MetricDef &d : kPerLayer)
                emit(d);
        } else {
            for (const MetricDef &d : kEndToEnd)
                emit(d);
        }
        json << "}}";
        std::printf("%s\n", json.str().c_str());
        std::fflush(stdout);
    }

  private:
    std::map<std::string, double> values_;
    bool correct_ = true;
};

// ---------------------------------------------------------------------
// Tick instrumentation at the engine seams, and spans
// ---------------------------------------------------------------------

/** Steady-clock stamps (ns) of one tick; 0 where not taken. */
struct TickTimes
{
    int64_t begin = 0;  //!< the engine asked for the tick's input
    int64_t pulled = 0; //!< the telemetry pull returned (serve)
    int64_t fed = 0;    //!< ClusterFeed::beginTick returned (serve)
    int64_t end = 0;    //!< the tick was simulated and recorded
};

/**
 * Stamps every tick at the engine's TickSource/TickObserver seams —
 * two clock reads per tick, four under a feed — and forwards to the
 * engine's own tick source, if any (the ClusterFeed of a served run).
 */
class TickClock : public sim::TickSource, public sim::TickObserver
{
  public:
    void setFeed(sim::TickSource *feed) { feed_ = feed; }

    bool beginTick(size_t tick) override
    {
        at(tick).begin = nowNs();
        if (!feed_)
            return true;
        const bool more = feed_->beginTick(tick);
        at(tick).fed = nowNs();
        return more;
    }

    void endTick(size_t tick) override
    {
        at(tick).end = nowNs();
        done_.store(tick + 1, std::memory_order_release);
    }

    TickTimes &at(size_t tick)
    {
        if (tick >= ticks_.size())
            ticks_.resize(tick + 1);
        return ticks_[tick];
    }

    const std::vector<TickTimes> &ticks() const { return ticks_; }

    /** Ticks completed so far; safe to read from another thread. */
    size_t done() const { return done_.load(std::memory_order_acquire); }

    /** Wall time (ms) of tick @p t, begin to end. */
    double tickMs(size_t t) const
    {
        return static_cast<double>(ticks_[t].end - ticks_[t].begin) / 1e6;
    }

  private:
    sim::TickSource *feed_ = nullptr;
    std::vector<TickTimes> ticks_;
    std::atomic<size_t> done_{0};
};

/** Times StreamSource::pull for the TickClock; forwards everything. */
class TimedSource : public stream::TelemetrySource
{
  public:
    TimedSource(stream::TelemetrySource &inner, TickClock &clock)
        : inner_(inner), clock_(clock)
    {
    }

    size_t streams() const override { return inner_.streams(); }

    bool pull(size_t tick, stream::TickBatch &batch) override
    {
        const bool more = inner_.pull(tick, batch);
        clock_.at(tick).pulled = nowNs();
        backlog_max_ = std::max(backlog_max_, inner_.backlog());
        return more;
    }

    stream::IngestStats *ingest() override { return inner_.ingest(); }
    const stream::DecodeStats *codec() const override
    {
        return inner_.codec();
    }
    size_t backlog() const override { return inner_.backlog(); }

    size_t backlogMax() const { return backlog_max_; }

  private:
    stream::TelemetrySource &inner_;
    TickClock &clock_;
    size_t backlog_max_ = 0;
};

/** Spans recorded by the bench's wrappers, written when the run ends. */
class Spans
{
  public:
    void add(long id, const char *span, const char *parent, int64_t start,
             int64_t end)
    {
        rows_.push_back({id, span, parent, start, end});
    }

    /** The tick ⊃ feed.begin ⊃ stream.pull spans of @p ticks. */
    void addTicks(const TickClock &clock, size_t first, size_t last)
    {
        for (size_t t = first; t < last; ++t) {
            const TickTimes &tt = clock.ticks()[t];
            const long id = static_cast<long>(t);
            add(id, "tick", "", tt.begin, tt.end);
            if (tt.fed)
                add(id, "feed.begin", "tick", tt.begin, tt.fed);
            if (tt.pulled)
                add(id, "stream.pull", "feed.begin", tt.begin, tt.pulled);
        }
    }

    /** Write DIR/<workload>.spans.csv (times in µs since the first span). */
    void write(const std::string &dir, const std::string &workload) const
    {
        if (dir.empty() || rows_.empty())
            return;
        ::mkdir(dir.c_str(), 0755);
        const std::string path = dir + "/" + workload + ".spans.csv";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            die("cannot write %s: %s", path.c_str(), std::strerror(errno));
        int64_t t0 = rows_.front().start;
        for (const Row &r : rows_)
            t0 = std::min(t0, r.start);
        std::fprintf(f, "id,span,parent,start_us,end_us\n");
        for (const Row &r : rows_)
            std::fprintf(f, "%ld,%s,%s,%.3f,%.3f\n", r.id, r.span,
                         r.parent, static_cast<double>(r.start - t0) / 1e3,
                         static_cast<double>(r.end - t0) / 1e3);
        std::fclose(f);
        std::fprintf(stderr, "npsbench: wrote %zu spans to %s\n",
                     rows_.size(), path.c_str());
    }

  private:
    struct Row
    {
        long id;
        const char *span;
        const char *parent;
        int64_t start;
        int64_t end;
    };
    std::vector<Row> rows_;
};

// ---------------------------------------------------------------------
// Outcome digests and their pins
// ---------------------------------------------------------------------

/**
 * The run's deterministic outcome as text: the MetricsSummary, the
 * DegradeStats and the VMC stats, every double in hexfloat. Equal
 * texts mean bit-identical results.
 */
std::string
outcomeText(const core::Coordinator &coord)
{
    const sim::MetricsSummary m = coord.summary();
    const fault::DegradeStats &d = m.degrade;
    char buf[1024];
    int n = std::snprintf(
        buf, sizeof buf,
        "ticks=%zu energy=%a mean=%a peak=%a sm=%a em=%a gm=%a perf=%a\n"
        "degrade=%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,%lu,"
        "%lu\n",
        m.ticks, m.energy, m.mean_power, m.peak_power, m.sm_violation,
        m.em_violation, m.gm_violation, m.perf_loss, d.outage_ticks,
        d.outage_steps, d.restarts, d.lease_expiries,
        d.lease_fallback_steps, d.ec_fallback_steps, d.dropped_budgets,
        d.stale_budgets, d.stuck_actuations, d.noisy_reads,
        d.netem_delayed, d.netem_late_deliveries, d.netem_expired,
        d.netem_partition_drops, d.netem_reorder_drops);
    std::string text(buf, static_cast<size_t>(n));
    if (const controllers::VmController *vmc = coord.vmc()) {
        const auto &v = vmc->stats();
        n = std::snprintf(buf, sizeof buf, "vmc=%lu,%lu,%lu,%lu,%a\n",
                          v.epochs, v.migrations, v.adoptions, v.infeasible,
                          v.last_est_power);
        text.append(buf, static_cast<size_t>(n));
    }
    return text;
}

struct Pin
{
    const char *workload;
    uint64_t seed;
    uint64_t digest;
};

/**
 * Reference digests at full size for the default seed and the held-out
 * seed 7: the outcome text after the warm-up prefix (batch and serve)
 * and the `npsim --plan` recorder CSV (dist). Any other seed is checked
 * against the threads-1 batch or --plan oracle computed in the run.
 */
const Pin kPins[] = {
    {"fleet-100k", 20080301, 0x383fb94eb09a9209ull},
    {"fleet-100k", 7, 0xafd5d07da5b5bffeull},
    {"consolidate-10k", 20080301, 0xef73883ba7b18dd1ull},
    {"consolidate-10k", 7, 0xb89236ff620dbefcull},
    {"serve-10k", 20080301, 0x812b3157adb57518ull},
    {"serve-10k", 7, 0x2908c2b37ba59797ull},
    {"dist-paper", 20080301, 0xa50af14191844067ull},
    {"dist-paper", 7, 0x67485d691b8b20c8ull},
};

/** Compare @p digest with the oracle's and, when pinned, with the pin. */
void
checkDigest(Report &r, const std::string &workload, uint64_t seed,
            bool pinnable, uint64_t digest, uint64_t oracle)
{
    std::fprintf(stderr,
                 "npsbench: %s seed %llu digest %016llx (oracle %016llx)\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(oracle));
    r.check(digest == oracle, workload + ": outcome differs from the oracle");
    if (!pinnable)
        return;
    for (const Pin &p : kPins) {
        if (workload == p.workload && seed == p.seed)
            r.check(digest == p.digest,
                    workload + ": outcome differs from the pinned digest");
    }
}

// ---------------------------------------------------------------------
// Per-layer metrics from the profiler and the tick stamps
// ---------------------------------------------------------------------

enum Kind
{
    kEc,
    kSm,
    kEm,
    kGm,
    kVmc,
    kOther,
    kKinds
};

const char *const kKindName[] = {"ec", "sm", "em", "gm", "vmc"};

Kind
kindOf(const std::string &actor)
{
    auto starts = [&actor](const char *p) {
        return actor.compare(0, std::strlen(p), p) == 0;
    };
    if (starts("EC/"))
        return kEc;
    if (starts("SM/"))
        return kSm;
    if (starts("EM/"))
        return kEm;
    if (actor == "GM" || starts("GM/"))
        return kGm;
    if (actor == "VMC")
        return kVmc;
    return kOther;
}

/** The slowest-period controller kind that steps at @p tick. */
Kind
tickClass(const core::CoordinationConfig &c, size_t tick)
{
    if (c.enable_vmc && tick % c.vmc.period == 0)
        return kVmc;
    if (c.enable_gm && tick % c.gm.period == 0)
        return kGm;
    if (c.enable_em && tick % c.em.period == 0)
        return kEm;
    if (c.enable_sm && tick % c.sm.period == 0)
        return kSm;
    return kEc;
}

/**
 * Fold the profiler's per-actor timings into per-kind controller
 * metrics, plus the evaluate and record phases of the engine.
 */
void
putProfile(Report &r, const obs::EngineProfiler &prof, size_t servers)
{
    uint64_t ns[kKinds] = {};
    uint64_t steps[kKinds] = {};
    uint64_t actors_ns = 0;
    for (const auto &a : prof.actorStats()) {
        const Kind k = kindOf(a.info.name);
        ns[k] += a.observe_ns + a.step_ns;
        steps[k] += a.step_calls;
        actors_ns += a.observe_ns + a.step_ns;
    }
    const double eval = static_cast<double>(
        prof.phaseNs(obs::EnginePhase::Evaluate));
    const double record =
        static_cast<double>(prof.phaseNs(obs::EnginePhase::Record));
    const double total = static_cast<double>(actors_ns) + eval + record;
    const double ticks = static_cast<double>(prof.ticks());

    auto perCall = [&](Kind k) {
        return ratio(static_cast<double>(ns[k]),
                     static_cast<double>(steps[k]));
    };
    r.put("controllers.ec.ns_per_call", perCall(kEc));
    r.put("controllers.sm.ns_per_call", perCall(kSm));
    r.put("controllers.em.us_per_call", perCall(kEm) / 1e3);
    r.put("controllers.gm.us_per_call", perCall(kGm) / 1e3);
    double named = eval + record;
    for (int k = kEc; k <= kVmc; ++k) {
        r.put(std::string("controllers.") + kKindName[k] + ".share",
              ratio(static_cast<double>(ns[k]), total));
        named += static_cast<double>(ns[k]);
    }
    r.put("sim.profile_coverage", ratio(named, total));
    r.put("sim.evaluate_ns_per_server_tick",
          ratio(eval, static_cast<double>(servers) * ticks));
    r.put("sim.record_us_per_tick", ratio(record / 1e3, ticks));
    r.put("sim.actor_busy_frac",
          ratio(static_cast<double>(actors_ns),
                static_cast<double>(prof.wallNs()) * prof.threads()));
}

/** Tick-latency percentiles and per-class means over @p ticks. */
void
putTickStats(Report &r, const TickClock &clock,
             const core::CoordinationConfig &config,
             const std::vector<size_t> &ticks)
{
    std::vector<double> all;
    std::vector<double> by_class[kKinds];
    for (size_t t : ticks) {
        const double ms = clock.tickMs(t);
        all.push_back(ms);
        by_class[tickClass(config, t)].push_back(ms);
    }
    r.put("sim.tick_ms_p50", quantile(all, 0.5));
    r.put("sim.tick_ms_p99", quantile(all, 0.99));
    for (int k = kEc; k <= kGm; ++k)
        r.put(std::string("sim.tick_ms.") + kKindName[k],
              mean(by_class[k]));
}

void
putVmc(Report &r, const core::Coordinator &coord)
{
    if (const controllers::VmController *vmc = coord.vmc()) {
        r.put("controllers.vmc.epochs",
              static_cast<double>(vmc->stats().epochs));
        r.put("controllers.vmc.migrations",
              static_cast<double>(vmc->stats().migrations));
    }
}

void
putOutcome(Report &r, const sim::MetricsSummary &m)
{
    r.put("out.mean_power_w", m.mean_power);
    r.put("out.perf_loss_pct", m.perf_loss * 100.0);
}

// ---------------------------------------------------------------------
// Options and workload shapes
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_dir;
    std::string npsim;
    /** Toy sizes: the full-size pins do not apply. */
    bool smoke = false;
};

/**
 * Measured ticks run in chunks of whole controller periods, so every
 * chunk does the same mix of work; the run measures chunks until
 * --seconds have passed (and at least min_chunks).
 */
struct BatchShape
{
    unsigned servers;
    bool vmc;         //!< coordinatedConfig (VMC on) vs fleetConfig
    unsigned threads; //!< engine threads
    size_t warm;      //!< warm-up ticks, checked against the oracle
    size_t chunk;     //!< ticks per measured chunk
    size_t min_chunks;
};

/** One built simulation and the time its set-up took. */
struct Built
{
    std::unique_ptr<core::Coordinator> coord;
    std::vector<trace::UtilizationTrace> traces;
    double inputs_s = 0.0; //!< FleetGen: topology and traces
    double build_s = 0.0;  //!< the Coordinator constructor
};

Built
buildFleet(const core::CoordinationConfig &cfg, unsigned servers,
           uint64_t seed)
{
    Built b;
    const Clock::time_point t0 = Clock::now();
    sim::FleetSpec spec;
    spec.servers = servers;
    spec.seed = seed;
    sim::FleetGen gen(spec);
    const sim::Topology topo = gen.topology();
    {
        util::ThreadPool pool(cfg.threads);
        b.traces = gen.traces(cfg.threads > 1 ? &pool : nullptr);
    }
    b.inputs_s = secondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    b.coord = std::make_unique<core::Coordinator>(cfg, topo, model::bladeA(),
                                                  b.traces);
    b.build_s = secondsSince(t1);
    return b;
}

/** The set-up times of one run; the metrics are their medians. */
struct Setups
{
    std::vector<double> total, inputs, build;

    void add(double inputs_s, double build_s, double total_s)
    {
        inputs.push_back(inputs_s);
        build.push_back(build_s);
        total.push_back(total_s);
    }
};

/** Alternate the profiler over chunks in a traced run. */
bool
profiledChunk(const Options &opt, size_t chunk)
{
    return opt.trace && chunk % 2 == 1;
}

// ---------------------------------------------------------------------
// Batch: fleet-100k and consolidate-10k
// ---------------------------------------------------------------------

Report
runBatch(const Options &opt, const BatchShape &shape)
{
    Report r;
    core::CoordinationConfig cfg =
        shape.vmc ? core::coordinatedConfig() : core::fleetConfig();
    cfg.threads = shape.threads;

    // Set-up 1 doubles as the oracle: the same build stepped serially.
    Setups setups;
    std::string oracle;
    for (int i = 0; i + 1 < kSetups; ++i) {
        Built b = buildFleet(cfg, shape.servers, opt.seed);
        setups.add(b.inputs_s, b.build_s, b.inputs_s + b.build_s);
        if (i == 0) {
            b.coord->engine().setThreads(1);
            b.coord->run(shape.warm);
            oracle = outcomeText(*b.coord);
        }
    }
    Built b = buildFleet(cfg, shape.servers, opt.seed);
    setups.add(b.inputs_s, b.build_s, b.inputs_s + b.build_s);
    b.traces.clear();
    b.traces.shrink_to_fit();
    core::Coordinator &coord = *b.coord;

    TickClock clock;
    coord.engine().setTickSource(&clock);
    coord.engine().setTickObserver(&clock);

    coord.run(shape.warm);
    const std::string warm_outcome = outcomeText(coord);
    const sim::MetricsSummary warm_summary = coord.summary();
    checkDigest(r, opt.workload, opt.seed, !opt.smoke, fnv1a(warm_outcome),
                fnv1a(oracle));

    obs::EngineProfiler prof;
    std::vector<double> chunk_ns[2];
    std::vector<size_t> plain_ticks;
    const double server_ticks =
        static_cast<double>(shape.servers) * static_cast<double>(shape.chunk);
    const Clock::time_point start = Clock::now();
    for (size_t n = 0;
         n < shape.min_chunks || secondsSince(start) < opt.seconds; ++n) {
        const bool profiled = profiledChunk(opt, n);
        coord.engine().setProfiler(profiled ? &prof : nullptr);
        const size_t first = coord.engine().now();
        const Clock::time_point t0 = Clock::now();
        coord.run(shape.chunk);
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        chunk_ns[profiled].push_back(ns / server_ticks);
        if (!profiled) {
            for (size_t t = first; t < coord.engine().now(); ++t)
                plain_ticks.push_back(t);
        }
    }
    coord.engine().setProfiler(nullptr);
    coord.engine().setTickSource(nullptr);
    coord.engine().setTickObserver(nullptr);

    const size_t ran = coord.engine().now();
    r.attempted = ran;
    r.failed = r.correct() ? 0 : ran;

    std::vector<double> tick_ms;
    for (size_t t : plain_ticks)
        tick_ms.push_back(clock.tickMs(t));
    r.put("ns_per_server_tick", median(chunk_ns[0]));
    r.put("lag_ms_p50", quantile(tick_ms, 0.5));
    r.put("lag_ms_p90", quantile(tick_ms, 0.9));
    r.put("setup_s", median(setups.total));
    r.put("peak_rss_mb", selfPeakRssMb());

    putTickStats(r, clock, coord.config(), plain_ticks);
    putProfile(r, prof, shape.servers);
    r.put("sim.inputs_s", median(setups.inputs));
    r.put("core.build_s", median(setups.build));
    putVmc(r, coord);
    r.put("trace_overhead_x", ratio(median(chunk_ns[1]), median(chunk_ns[0])));
    putOutcome(r, warm_summary);

    if (opt.trace) {
        Spans spans;
        spans.addTicks(clock, shape.warm, ran);
        spans.write(opt.trace_dir, opt.workload);
    }
    return r;
}

// ---------------------------------------------------------------------
// Serve: serve-10k
// ---------------------------------------------------------------------

struct ServeShape
{
    unsigned servers;
    unsigned threads;   //!< engine threads (the feeder is one more)
    size_t warm;        //!< warm-up ticks, checked against the oracle
    size_t chunk;       //!< ticks per engine run() call
    size_t min_chunks;  //!< whole phase-1 chunks, at least
    double closed_frac; //!< share of --seconds spent in phase 1
    double rate;        //!< phase 2 pace (ticks per second)
};

/**
 * The fleet's traces tick-major, so the feeder encodes a tick from one
 * contiguous row: the generator must stay cheaper than the engine it
 * feeds. FleetGen traces share one length and wrap like
 * UtilizationTrace::at.
 */
struct DemandTable
{
    size_t vms = 0;
    size_t period = 0;
    std::vector<double> v;

    explicit DemandTable(const std::vector<trace::UtilizationTrace> &traces)
        : vms(traces.size()), period(traces.at(0).length())
    {
        v.resize(period * vms);
        for (size_t vm = 0; vm < vms; ++vm) {
            if (traces[vm].length() != period)
                die("serve: traces of unequal length");
            for (size_t k = 0; k < period; ++k)
                v[k * vms + vm] = traces[vm].at(k);
        }
    }

    const double *row(size_t tick) const { return &v[(tick % period) * vms]; }
};

/** What the feeder sends: the two phases of a served run. */
struct FeedPlan
{
    double closed_s = 0.0;       //!< phase 1 lasts at least this long
    size_t closed_min_ticks = 1; //!< and covers at least this many ticks
    size_t open_ticks = 0;       //!< phase 2 length
    double rate = 1.0;           //!< phase 2 pace (ticks per second)
};

/**
 * The load generator of a served run, on its own thread: encodes NPSF
 * frames with stream::FrameWriter from the fleet's traces, as npsfeed
 * does. Phase 1 is a closed loop at saturation (the socket buffer is
 * the window); once the engine has drained it, phase 2 sends one tick
 * every 1/rate seconds regardless of the engine — an open loop.
 */
class Feeder
{
  public:
    Feeder(const DemandTable &demand, int fd, const TickClock &clock,
           const FeedPlan &plan)
        : demand_(demand), fd_(fd), clock_(clock), plan_(plan)
    {
    }

    /** Abandon the run (the engine side failed); unblocks the thread. */
    void stop() { stop_.store(true); }

    void run()
    {
        stream::HelloFrame hello;
        hello.streams = static_cast<uint32_t>(demand_.vms);
        w_.hello(hello);

        const Clock::time_point start = Clock::now();
        size_t t = 0;
        do {
            const Clock::time_point t0 = Clock::now();
            encode(t++);
            encode_s_ += secondsSince(t0);
            if (!send())
                return;
        } while ((secondsSince(start) < plan_.closed_s ||
                  t < plan_.closed_min_ticks) &&
                 !stop_.load());
        closed_ticks_ = t;
        closed_wall_s_ = secondsSince(start);

        while (clock_.done() < closed_ticks_) {
            if (stop_.load())
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }

        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / plan_.rate));
        const Clock::time_point open_start = Clock::now();
        for (size_t k = 0; k < plan_.open_ticks && !stop_.load(); ++k) {
            const Clock::time_point due = open_start + period * k;
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            late_max_s_ = std::max(
                late_max_s_, std::chrono::duration<double>(sent - due).count());
            due_ns_.push_back(toNs(due));
            encode(t++);
            if (!send())
                return;
        }
        w_.bye(t);
        ok_ = send();
        // The source ends the run on end-of-file, not on the BYE frame.
        ::shutdown(fd_, SHUT_WR);
    }

    /// @name Results, valid once the thread has been joined
    /// @{
    bool ok() const { return ok_; }
    size_t closedTicks() const { return closed_ticks_; }
    double busyFrac() const { return ratio(encode_s_, closed_wall_s_); }
    double lateMaxFrac() const { return late_max_s_ * plan_.rate; }
    /** Due time (steady ns) of open-loop tick closedTicks() + k. */
    const std::vector<int64_t> &dueNs() const { return due_ns_; }
    /// @}

  private:
    void encode(size_t tick)
    {
        const double *row = demand_.row(tick);
        for (size_t vm = 0; vm < demand_.vms; ++vm) {
            stream::SampleFrame s;
            s.tick = tick;
            s.stream = static_cast<uint32_t>(vm);
            s.demand = row[vm];
            w_.sample(s);
        }
        w_.tickEnd(tick);
    }

    bool send()
    {
        const bool sent = stream::writeAll(fd_, w_.data(), w_.size());
        w_.clear();
        return sent;
    }

    const DemandTable &demand_;
    const int fd_;
    const TickClock &clock_;
    const FeedPlan plan_;
    std::atomic<bool> stop_{false};
    stream::FrameWriter w_;
    bool ok_ = false;
    size_t closed_ticks_ = 0;
    double closed_wall_s_ = 0.0;
    double encode_s_ = 0.0;
    double late_max_s_ = 0.0;
    std::vector<int64_t> due_ns_;
};

/**
 * One `npsim --serve` deployment wired in process: StreamSource →
 * ClusterFeed → Coordinator over an AF_UNIX socketpair, the Feeder
 * writing the other end. Construction is the set-up that is timed; it
 * ends once the first tick has been received and staged.
 */
class ServeRig
{
  public:
    ServeRig(const core::CoordinationConfig &cfg, const ServeShape &shape,
             uint64_t seed, const DemandTable &demand, const FeedPlan &plan)
    {
        const Clock::time_point t0 = Clock::now();
        built_ = buildFleet(cfg, shape.servers, seed);
        core::Coordinator &coord = *built_.coord;
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            die("socketpair: %s", std::strerror(errno));
        feeder_fd_ = fds[1];
        source_ = std::make_unique<stream::StreamSource>(
            fds[0], coord.cluster().numVms(), cfg.stream);
        timed_ = std::make_unique<TimedSource>(*source_, clock_);
        feed_ = std::make_unique<stream::ClusterFeed>(coord.cluster(),
                                                      *timed_, cfg.stream);
        clock_.setFeed(feed_.get());
        coord.engine().setTickSource(&clock_);
        coord.engine().setTickObserver(&clock_);
        coord.attachStreamHealth(feed_.get());
        feeder_ = std::make_unique<Feeder>(demand, feeder_fd_, clock_, plan);
        thread_ = std::thread([this] { feeder_->run(); });
        coord.run(1);
        setup_s_ = static_cast<double>(clock_.ticks()[0].fed - toNs(t0)) / 1e9;
    }

    ~ServeRig()
    {
        if (thread_.joinable()) {
            feeder_->stop();
            ::shutdown(feeder_fd_, SHUT_RDWR);
            thread_.join();
        }
        ::close(feeder_fd_);
        built_.coord->attachStreamHealth(nullptr);
        built_.coord->engine().setTickSource(nullptr);
        built_.coord->engine().setTickObserver(nullptr);
    }

    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;

    /** Wait for the feeder to finish its plan. */
    void join() { thread_.join(); }

    core::Coordinator &coord() { return *built_.coord; }
    const Built &built() const { return built_; }
    const TickClock &clock() const { return clock_; }
    stream::StreamSource &source() { return *source_; }
    const TimedSource &timed() const { return *timed_; }
    const stream::ClusterFeed &feed() const { return *feed_; }
    const Feeder &feeder() const { return *feeder_; }
    double setupS() const { return setup_s_; }

  private:
    Built built_;
    int feeder_fd_ = -1;
    TickClock clock_;
    std::unique_ptr<stream::StreamSource> source_;
    std::unique_ptr<TimedSource> timed_;
    std::unique_ptr<stream::ClusterFeed> feed_;
    std::unique_ptr<Feeder> feeder_;
    double setup_s_ = 0.0;
    std::thread thread_;
};

Report
runServe(const Options &opt, const ServeShape &shape)
{
    Report r;
    core::CoordinationConfig cfg = core::fleetConfig();
    cfg.threads = shape.threads;

    // The oracle: the same fleet as a plain batch run, serially. Its
    // traces are what the feeder sends.
    std::string oracle;
    std::unique_ptr<DemandTable> demand;
    {
        Built b = buildFleet(cfg, shape.servers, opt.seed);
        demand = std::make_unique<DemandTable>(b.traces);
        b.coord->engine().setThreads(1);
        b.coord->run(shape.warm);
        oracle = outcomeText(*b.coord);
    }

    cfg.stream.enabled = true;
    FeedPlan plan;
    plan.closed_s = opt.seconds * shape.closed_frac;
    plan.closed_min_ticks = shape.warm + shape.min_chunks * shape.chunk;
    plan.open_ticks = static_cast<size_t>(
        std::llround(opt.seconds * (1.0 - shape.closed_frac) * shape.rate));
    plan.rate = shape.rate;

    // Set-ups 1 and 2 stop after the handshake and the first tick.
    Setups setups;
    for (int i = 0; i + 1 < kSetups; ++i) {
        ServeRig rig(cfg, shape, opt.seed, *demand, FeedPlan{});
        setups.add(rig.built().inputs_s, rig.built().build_s, rig.setupS());
    }
    ServeRig rig(cfg, shape, opt.seed, *demand, plan);
    setups.add(rig.built().inputs_s, rig.built().build_s, rig.setupS());
    core::Coordinator &coord = rig.coord();

    coord.run(shape.warm - 1);
    const std::string warm_outcome = outcomeText(coord);
    const sim::MetricsSummary warm_summary = coord.summary();
    checkDigest(r, opt.workload, opt.seed, !opt.smoke, fnv1a(warm_outcome),
                fnv1a(oracle));

    obs::EngineProfiler prof;
    struct Chunk
    {
        size_t first, last;
        bool profiled;
    };
    std::vector<Chunk> chunks;
    for (size_t n = 0;; ++n) {
        const bool profiled = profiledChunk(opt, n);
        coord.engine().setProfiler(profiled ? &prof : nullptr);
        const size_t first = coord.engine().now();
        const size_t ran = coord.run(shape.chunk);
        chunks.push_back({first, first + ran, profiled});
        if (ran < shape.chunk)
            break;
    }
    coord.engine().setProfiler(nullptr);
    rig.join();

    const Feeder &feeder = rig.feeder();
    const TickClock &clock = rig.clock();
    const size_t closed = feeder.closedTicks();
    const size_t ticks = coord.engine().now();
    const size_t vms = coord.cluster().numVms();

    // Correctness: every sample of every tick staged, nothing degraded.
    const stream::ClusterFeed::Stats &fs = rig.feed().stats();
    const stream::IngestStats &in = *rig.source().ingest();
    const stream::DecodeStats &dc = rig.source().decodeStats();
    r.check(feeder.ok(), "serve: the feeder could not send every tick");
    r.check(ticks == closed + plan.open_ticks,
            "serve: simulated " + std::to_string(ticks) + " of " +
                std::to_string(closed + plan.open_ticks) + " ticks");
    r.check(fs.staged_samples == ticks * vms,
            "serve: not every sample was staged");
    r.check(dc.bad_crc == 0 && dc.bad_type == 0 && dc.resync_bytes == 0,
            "serve: frame decode errors");
    r.check(in.late == 0 && in.duplicates == 0 && in.bad_stream == 0,
            "serve: late, duplicate or unknown-stream samples");
    const uint64_t lost = fs.missing_samples + fs.held_samples +
                          fs.fallback_samples + in.timeouts + in.overflow;
    r.check(lost == 0, "serve: " + std::to_string(lost) +
                           " samples missing, held, fallen back, timed "
                           "out or overflowed");
    if (feeder.busyFrac() >= 0.5)
        std::fprintf(stderr, "npsbench: warning: the feeder was busy %.0f%% "
                             "of phase 1, so it may have set the pace\n",
                     feeder.busyFrac() * 100.0);

    // Phase 1, whole chunks only: ns per sample at saturation, and the
    // tick and span timings (in phase 2 a tick also holds the wait for
    // the paced feeder).
    std::vector<double> closed_ns[2];
    std::vector<size_t> plain_ticks;
    double pull_ns = 0.0, stage_ns = 0.0, tick_ns = 0.0;
    for (const Chunk &c : chunks) {
        if (c.last > closed || c.last - c.first < shape.chunk)
            continue;
        const TickTimes &before = clock.ticks()[c.first - 1];
        const TickTimes &last = clock.ticks()[c.last - 1];
        closed_ns[c.profiled].push_back(
            static_cast<double>(last.end - before.end) /
            static_cast<double>((c.last - c.first) * vms));
        if (c.profiled)
            continue;
        for (size_t t = c.first; t < c.last; ++t) {
            const TickTimes &tt = clock.ticks()[t];
            pull_ns += static_cast<double>(tt.pulled - tt.begin);
            stage_ns += static_cast<double>(tt.fed - tt.pulled);
            tick_ns += static_cast<double>(tt.end - tt.begin);
            plain_ticks.push_back(t);
        }
    }
    r.check(!closed_ns[0].empty(),
            "serve: phase 1 too short to measure a whole chunk");
    r.attempted = static_cast<uint64_t>(closed + plan.open_ticks) * vms;
    r.failed = r.correct() ? 0 : lost ? lost : r.attempted;

    // Phase 2: lag from each tick's due time to its end.
    std::vector<double> lag_ms;
    const std::vector<int64_t> &due = feeder.dueNs();
    for (size_t k = 0; k < due.size() && closed + k < ticks; ++k)
        lag_ms.push_back(
            static_cast<double>(clock.ticks()[closed + k].end - due[k]) /
            1e6);

    r.put("ns_per_server_tick", median(closed_ns[0]));
    r.put("lag_ms_p50", quantile(lag_ms, 0.5));
    r.put("lag_ms_p90", quantile(lag_ms, 0.9));
    r.put("setup_s", median(setups.total));
    r.put("peak_rss_mb", selfPeakRssMb());

    putTickStats(r, clock, coord.config(), plain_ticks);
    putProfile(r, prof, shape.servers);
    r.put("sim.inputs_s", median(setups.inputs));
    r.put("core.build_s", median(setups.build));
    r.put("stream.pull_share", ratio(pull_ns, tick_ns));
    r.put("stream.stage_share", ratio(stage_ns, tick_ns));
    r.put("stream.backlog_ticks_max",
          static_cast<double>(rig.timed().backlogMax()));
    r.put("feeder.busy_frac", feeder.busyFrac());
    r.put("feeder.late_max_frac", feeder.lateMaxFrac());
    r.put("trace_overhead_x",
          ratio(median(closed_ns[1]), median(closed_ns[0])));
    putOutcome(r, warm_summary);
    if (opt.trace) {
        Spans spans;
        spans.addTicks(clock, shape.warm, ticks);
        spans.write(opt.trace_dir, opt.workload);
    }
    return r;
}

// ---------------------------------------------------------------------
// Dist: dist-paper
// ---------------------------------------------------------------------

struct DistShape
{
    size_t ticks;     //!< ticks per npsim invocation
    size_t min_runs;  //!< --distributed invocations, at least
    size_t chunk;     //!< ticks per chunk of the traced replica
};

constexpr unsigned kRecordStride = 96;

/** One finished child process. */
struct ChildResult
{
    int status = -1;
    double wall_s = 0.0;
    double rss_mb = 0.0;
};

/**
 * Run @p argv in @p dir with stdout and stderr sent to @p log, in its
 * own process group, and wait for it. A child still running after
 * @p timeout_s is killed together with everything it spawned.
 */
ChildResult
runChild(const std::vector<std::string> &argv, const std::string &dir,
         const std::string &log, double timeout_s)
{
    ChildResult res;
    const Clock::time_point t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0)
        die("fork: %s", std::strerror(errno));
    if (pid == 0) {
        ::setpgid(0, 0);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd < 0 || ::chdir(dir.c_str()) != 0)
            ::_exit(126);
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        std::vector<char *> args;
        for (const std::string &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::setpgid(pid, pid);
    for (;;) {
        int status = 0;
        struct rusage ru;
        const pid_t got = ::wait4(pid, &status, WNOHANG, &ru);
        if (got == pid) {
            res.wall_s = secondsSince(t0);
            res.status = status;
            res.rss_mb = rssMb(ru);
            break;
        }
        if (got < 0 && errno != EINTR)
            die("wait4: %s", std::strerror(errno));
        if (secondsSince(t0) > timeout_s) {
            std::fprintf(stderr, "npsbench: %s timed out; killing it\n",
                         argv[0].c_str());
            ::kill(-pid, SIGKILL);
        }
        ::usleep(500);
    }
    // Grandchildren orphaned by a crash were re-parented to us (we are
    // a subreaper): stop and reap them too.
    ::kill(-pid, SIGKILL);
    while (::waitpid(-1, nullptr, WNOHANG) > 0) {
    }
    return res;
}

bool
exitedCleanly(const ChildResult &c)
{
    return WIFEXITED(c.status) && WEXITSTATUS(c.status) == 0;
}

/** sum/count of a Prometheus histogram series labelled id="@p id". */
bool
promMean(const std::string &prom, const std::string &family,
         const std::string &id, double &sum, double &count)
{
    bool have_sum = false, have_count = false;
    std::istringstream in(prom);
    std::string line;
    const std::string label = "id=\"" + id + "\"";
    while (std::getline(in, line)) {
        if (line.find(label) == std::string::npos)
            continue;
        const std::string::size_type sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        if (line.compare(0, family.size() + 5, family + "_sum{") == 0) {
            sum = std::strtod(line.c_str() + sp + 1, nullptr);
            have_sum = true;
        } else if (line.compare(0, family.size() + 7, family + "_count{") ==
                   0) {
            count = std::strtod(line.c_str() + sp + 1, nullptr);
            have_count = true;
        }
    }
    return have_sum && have_count && count > 0.0;
}

/** Degrade events in npsim's "degrade: ..." summary line, or -1. */
long
degradeEvents(const std::string &log)
{
    const std::string::size_type at = log.find("degrade: ");
    if (at == std::string::npos)
        return -1;
    unsigned long v[5];
    if (std::sscanf(log.c_str() + at,
                    "degrade: %lu dropped, %lu stale, %lu lease expiries, "
                    "%lu fallback steps, %lu restarts",
                    &v[0], &v[1], &v[2], &v[3], &v[4]) != 5)
        return -1;
    return static_cast<long>(v[0] + v[1] + v[2] + v[3] + v[4]);
}

std::string
distPlan(const DistShape &shape, uint64_t seed)
{
    std::ostringstream p;
    p << "[dist]\ntransport = unix\nsocket = nps.sock\ntimeout_ms = 30000\n"
      << "\n[run]\nscenario = coordinated\nmix = 180\nticks = "
      << shape.ticks << "\nseed = " << seed
      << "\nthreads = 1\nrecord_stride = " << kRecordStride << "\n"
      << "\n[node gm]\nlevels = gm:*\n"
      << "\n[node em]\nlevels = em:*\n"
      << "\n[node vmc]\nlevels = vmc\n"
      << "\n[obs]\nmetrics_every = " << shape.ticks << "\n";
    return p.str();
}

constexpr int kDistRanks = 4;
constexpr unsigned kPaperServers = 180;

/**
 * The plan's experiment rebuilt in this process — what `npsim --plan`
 * materializes — so a traced run can profile the engine the distributed
 * ranks replicate. @return its recorder CSV, which must equal the
 * oracle's.
 */
std::string
runReplica(Report &r, const Options &opt, const DistShape &shape,
           Spans &spans)
{
    const Clock::time_point t0 = Clock::now();
    trace::GeneratorConfig gen;
    gen.seed = opt.seed;
    trace::WorkloadLibrary library(gen);
    const std::vector<trace::UtilizationTrace> traces =
        library.mix(trace::Mix::All180);
    const sim::Topology topo =
        core::ExperimentRunner::topologyFor(trace::Mix::All180);
    r.put("sim.inputs_s", secondsSince(t0));

    core::CoordinationConfig cfg = core::coordinatedConfig();
    cfg.threads = 1;
    cfg.distributed = true;
    cfg.observability.metrics = true;
    const Clock::time_point t1 = Clock::now();
    core::Coordinator coord(cfg, topo, model::machineByName("BladeA"),
                            traces);
    r.put("core.build_s", secondsSince(t1));
    sim::Recorder::Options ro;
    ro.stride = kRecordStride;
    auto recorder = std::make_shared<sim::Recorder>(coord.cluster(), ro);
    recorder->setFaultInjector(coord.faultInjector());
    coord.engine().addActor(recorder);

    TickClock clock;
    coord.engine().setTickSource(&clock);
    coord.engine().setTickObserver(&clock);
    obs::EngineProfiler prof;
    std::vector<double> chunk_ms[2];
    std::vector<size_t> plain_ticks;
    for (size_t n = 0; coord.engine().now() < shape.ticks; ++n) {
        const bool profiled = n % 2 == 1;
        coord.engine().setProfiler(profiled ? &prof : nullptr);
        const size_t first = coord.engine().now();
        const Clock::time_point c0 = Clock::now();
        coord.run(std::min(shape.chunk, shape.ticks - first));
        chunk_ms[profiled].push_back(secondsSince(c0) * 1e3);
        if (!profiled) {
            // Tick 0 only measures; no controller steps.
            for (size_t t = std::max<size_t>(first, 1);
                 t < coord.engine().now(); ++t)
                plain_ticks.push_back(t);
        }
    }
    coord.engine().setProfiler(nullptr);
    coord.engine().setTickSource(nullptr);
    coord.engine().setTickObserver(nullptr);

    putTickStats(r, clock, coord.config(), plain_ticks);
    putProfile(r, prof, kPaperServers);
    putVmc(r, coord);
    r.put("trace_overhead_x", ratio(median(chunk_ms[1]), median(chunk_ms[0])));
    putOutcome(r, coord.summary());
    spans.addTicks(clock, 0, coord.engine().now());
    std::ostringstream csv;
    recorder->writeCsv(csv);
    return csv.str();
}

Report
runDist(const Options &opt, const DistShape &shape)
{
    Report r;
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    const std::string npsim =
        opt.npsim.empty() ? selfDir() + "/npsim" : opt.npsim;
    char real[4096];
    if (!::realpath(npsim.c_str(), real))
        die("cannot find npsim at %s (use --npsim PATH)", npsim.c_str());
    const std::string dir =
        selfDir() + "/dist-run-" + std::to_string(::getpid());
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        die("mkdir %s: %s", dir.c_str(), std::strerror(errno));
    {
        std::ofstream plan(dir + "/dist.plan");
        plan << distPlan(shape, opt.seed);
    }
    std::vector<std::string> files = {"dist.plan"};
    Spans spans;
    // An invocation takes a few seconds; two hung ones must still fit
    // in one run's time limit.
    const double timeout_s = 60.0;

    // The oracle: the same plan in one process.
    const int64_t plan_start = nowNs();
    ChildResult oracle = runChild({real, "--plan", "dist.plan", "--record",
                                   "plan.csv", "--metrics", "plan.prom"},
                                  dir, dir + "/plan.log", timeout_s);
    spans.add(-1, "dist.plan", "", plan_start, nowNs());
    files.insert(files.end(), {"plan.csv", "plan.prom", "plan.log"});
    const std::string oracle_csv = readFile(dir + "/plan.csv");
    r.check(exitedCleanly(oracle) && !oracle_csv.empty(),
            "dist: npsim --plan failed (see " + dir + "/plan.log)");
    double plan_sum = 0.0, plan_count = 0.0;
    promMean(readFile(dir + "/plan.prom"), "nps_rt_tick_wall_ms", "rank0",
             plan_sum, plan_count);

    std::vector<double> tick_ms, setup_s;
    double rss_mb = 0.0;
    double barrier[kDistRanks] = {}, wall[kDistRanks] = {};
    uint64_t failed = 0;
    bool digest_checked = false;
    const Clock::time_point start = Clock::now();
    for (size_t n = 0; n < shape.min_runs || secondsSince(start) < opt.seconds;
         ++n) {
        const std::string tag = "dist-" + std::to_string(n);
        const int64_t run_start = nowNs();
        ChildResult run = runChild({real, "--distributed", "dist.plan",
                                    "--record", tag + ".csv", "--metrics",
                                    tag + ".prom"},
                                   dir, dir + "/" + tag + ".log", timeout_s);
        spans.add(static_cast<long>(n), "dist.run", "", run_start, nowNs());
        files.insert(files.end(),
                     {tag + ".csv", tag + ".prom", tag + ".log"});
        const std::string csv = readFile(dir + "/" + tag + ".csv");
        const std::string prom = readFile(dir + "/" + tag + ".prom");
        const long degraded = degradeEvents(readFile(dir + "/" + tag + ".log"));
        double sum = 0.0, count = 0.0;
        const bool ok = exitedCleanly(run) && degraded >= 0 &&
                        promMean(prom, "nps_rt_tick_wall_ms", "rank0", sum,
                                 count);
        r.check(ok, "dist: npsim --distributed failed (see " + dir + "/" +
                        tag + ".log)");
        r.check(csv == oracle_csv,
                "dist: " + tag + " recorder CSV differs from --plan");
        r.check(degraded == 0, "dist: " + tag + " degraded " +
                                   std::to_string(degraded) + " times");
        failed += degraded > 0 ? static_cast<uint64_t>(degraded) : 0;
        if (!ok || csv != oracle_csv)
            failed += shape.ticks;
        if (!digest_checked) {
            checkDigest(r, opt.workload, opt.seed, !opt.smoke, fnv1a(csv),
                        fnv1a(oracle_csv));
            digest_checked = true;
        }
        if (!ok)
            break;
        tick_ms.push_back(sum / count);
        setup_s.push_back(run.wall_s - sum / 1e3);
        rss_mb = std::max(rss_mb, run.rss_mb);
        for (int k = 0; k < kDistRanks; ++k) {
            const std::string id = "rank" + std::to_string(k);
            double bs = 0.0, bc = 0.0, ws = 0.0, wc = 0.0;
            promMean(prom, "nps_rt_barrier_wait_ms", id, bs, bc);
            promMean(prom, "nps_rt_tick_wall_ms", id, ws, wc);
            barrier[k] += bs;
            wall[k] += ws;
        }
    }
    r.attempted = shape.ticks * std::max<size_t>(tick_ms.size(), 1);
    r.failed = std::min<uint64_t>(failed, r.attempted);

    // The runtime exports its tick wall time as a histogram too coarse
    // for percentiles (bounds 0.05, 0.1, 0.5 ms); its exact sum/count
    // mean stands in for both lag percentiles.
    const double tick = median(tick_ms);
    r.put("ns_per_server_tick", tick * 1e6 / kPaperServers);
    r.put("lag_ms_p50", tick);
    r.put("lag_ms_p90", tick);
    r.put("setup_s", median(setup_s));
    r.put("peak_rss_mb", rss_mb);

    for (int k = 0; k < kDistRanks; ++k)
        r.put("bus.barrier_wait_share.rank" + std::to_string(k),
              ratio(barrier[k], wall[k]));
    r.put("dist.overhead_x", ratio(tick, ratio(plan_sum, plan_count)));
    if (opt.trace) {
        r.check(runReplica(r, opt, shape, spans) == oracle_csv,
                "dist: the in-process replica differs from --plan");
        spans.write(opt.trace_dir, opt.workload);
    }

    if (r.correct()) { // otherwise keep the logs the checks point at
        for (const std::string &f : files)
            ::unlink((dir + "/" + f).c_str());
        ::rmdir(dir.c_str());
    }
    return r;
}

// ---------------------------------------------------------------------
// Workload table, smoke test and main
// ---------------------------------------------------------------------

const char *const kWorkloads[] = {"fleet-100k", "consolidate-10k",
                                  "serve-10k", "dist-paper"};

Report
runWorkload(const Options &opt)
{
    const bool toy = opt.smoke;
    if (opt.workload == "fleet-100k")
        return runBatch(opt, {toy ? 1000u : 100000u, false, 4, 51, 50,
                              toy ? 2u : 3u});
    if (opt.workload == "consolidate-10k")
        return runBatch(opt, {toy ? 1000u : 10000u, true, 4, 501, 500,
                              toy ? 2u : 3u});
    if (opt.workload == "serve-10k")
        return runServe(opt, {toy ? 1000u : 10000u, 3, 51, 50, 3, 0.4,
                              250.0});
    if (opt.workload == "dist-paper")
        return runDist(opt, {toy ? 600u : 20000u, toy ? 1u : 3u, 500});
    die("unknown workload '%s' (fleet-100k, consolidate-10k, serve-10k, "
        "dist-paper)",
        opt.workload.c_str());
}

/**
 * Every workload at toy size, scored and traced: the schema is complete
 * (Report::print dies otherwise), serve equals batch and dist equals
 * --plan (the digest checks), nothing failed, and every end-to-end
 * metric is positive.
 */
int
smoke(Options opt)
{
    opt.smoke = true;
    opt.seconds = 0.4;
    opt.trace_dir = selfDir() + "/smoke-trace";
    int bad = 0;
    for (const char *w : kWorkloads) {
        for (bool trace : {false, true}) {
            opt.workload = w;
            opt.trace = trace;
            std::printf("== %s trace=%d\n", w, trace ? 1 : 0);
            const Report r = runWorkload(opt);
            r.print(trace);
            bool ok = r.correct() && r.failed == 0 && r.attempted > 0;
            for (const MetricDef &d : kEndToEnd)
                ok = ok && (trace || r.value(d.name) > 0.0);
            if (!ok) {
                std::fprintf(stderr, "npsbench: smoke: %s failed\n", w);
                ++bad;
            }
        }
    }
    return bad == 0 ? 0 : 1;
}

[[noreturn]] void
usage()
{
    std::printf(
        "usage: npsbench --workload W --seed N [--seconds S] [--trace 0|1]\n"
        "                [--trace-dir DIR] [--npsim PATH]\n"
        "       npsbench --smoke\n"
        "workloads: fleet-100k consolidate-10k serve-10k dist-paper\n");
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    // A feeder writing to a torn-down socket must see EPIPE, not die.
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    bool smoke_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die("%s needs a value", a.c_str());
            return argv[++i];
        };
        auto number = [&](const std::string &v) {
            char *end = nullptr;
            errno = 0;
            const double x = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || errno != 0 || !(x >= 0.0))
                die("%s: bad value '%s'", a.c_str(), v.c_str());
            return x;
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            errno = 0;
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || errno != 0)
                die("--seed: bad value '%s'", v.c_str());
        } else if (a == "--seconds") {
            opt.seconds = number(value());
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                die("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--trace-dir") {
            opt.trace_dir = value();
        } else if (a == "--npsim") {
            opt.npsim = value();
        } else if (a == "--smoke") {
            smoke_mode = true;
        } else if (a == "--help" || a == "-h") {
            usage();
        } else {
            die("unknown argument '%s' (try --help)", a.c_str());
        }
    }
    if (smoke_mode)
        return smoke(opt);
    if (opt.workload.empty())
        usage();
    if (opt.trace && opt.trace_dir.empty())
        opt.trace_dir = selfDir() + "/trace";
    const Report r = runWorkload(opt);
    r.print(opt.trace);
    return 0;
}
