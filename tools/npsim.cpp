/**
 * @file
 * npsim — command-line driver for the coordinated power-management
 * simulator.
 *
 * Runs one scenario over one machine model and workload mix and prints
 * the paper's metrics; optionally dumps the per-tick group power and
 * performance series as CSV for external plotting.
 *
 * Examples:
 *   npsim --scenario coordinated --machine BladeA --mix 180
 *   npsim --scenario uncoordinated --mix 60HH --machine ServerB \
 *         --ticks 5760 --budgets 25-20-15
 *   npsim --scenario coordinated --series out.csv
 *   npsim --checkpoint-every 200 --checkpoint-dir ckpts
 *   npsim --resume latest --checkpoint-dir ckpts --record out.csv
 *
 * Checkpointing (docs/CHECKPOINTING.md): --checkpoint-every writes a
 * crash-safe snapshot after every chunk of ticks; --resume restores one
 * and continues byte-identically to an uninterrupted run. The snapshot
 * embeds the resolved configuration and topology, so a resumed run needs
 * no --scenario/--config/--faults flags — only the output paths.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "ckpt/atomic_io.h"
#include "ckpt/snapshot.h"
#include "core/config_io.h"
#include "core/dist.h"
#include "core/dist_plan.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "obs/live/exporter.h"
#include "obs/live/publisher.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "sim/recorder.h"
#include "stream/feed.h"
#include "stream/net.h"
#include "stream/stream_source.h"
#include "util/csv.h"
#include "util/ini.h"
#include "util/logging.h"
#include "util/script.h"

namespace {

using namespace nps;

struct Args
{
    std::string scenario = "coordinated";
    std::string config_path;
    bool dump_config = false;
    std::string machine = "BladeA";
    std::string mix = "180";
    std::string budgets = "20-15-10";
    std::string series_path;
    std::string record_path;
    std::string faults_path;
    std::string topology_path;
    std::string control_log_path;
    std::string metrics_path;
    std::string cascade_path;
    std::string http;          //!< live observability endpoint spec
    unsigned http_linger_ms = 0;
    bool http_linger_set = false;
    std::string trace_path;
    std::string trace_filter;
    std::string profile_path;
    std::string log_level;
    std::string checkpoint_dir;
    std::string serve; //!< telemetry endpoint (daemon mode)
    std::string plan_single;  //!< --plan: run a dist plan inline (oracle)
    std::string distributed;  //!< --distributed: supervise a process tree
    size_t checkpoint_every = 0;
    std::string resume; //!< snapshot file, or "latest"
    unsigned record_stride = 1;
    bool record_stride_set = false;
    size_t ticks = 2880;
    bool ticks_set = false;
    uint64_t seed = 20080301;
    unsigned threads = 0;
    bool threads_set = false;
    bool two_pstates = false;
    bool no_power_off = false;
    bool enable_cap = false;
    bool enable_mem = false;
};

[[noreturn]] void
usage()
{
    std::printf(
        "usage: npsim [options]\n"
        "  --scenario S   coordinated | uncoordinated | baseline |\n"
        "                 novmc | vmconly | appr-util | no-feedback |\n"
        "                 no-budget-limits   (default coordinated)\n"
        "  --machine M    BladeA | ServerB   (default BladeA)\n"
        "  --mix X        180 | 60L | 60M | 60H | 60HH | 60HHH\n"
        "  --budgets B    20-15-10 | 25-20-15 | 30-25-20\n"
        "  --ticks N      simulation horizon (default 2880)\n"
        "  --seed N       trace-campaign seed (default 20080301)\n"
        "  --threads N    engine worker threads (0 = all cores,\n"
        "                 1 = serial; results are identical)\n"
        "  --two-pstates  reduce machines to the extreme P-states\n"
        "  --no-power-off keep idle machines on\n"
        "  --cap          enable the electrical cappers\n"
        "  --mem          enable the memory managers\n"
        "  --config FILE  load controller parameters from an INI file\n"
        "                 (applied on top of the chosen scenario)\n"
        "  --topology FILE  load the cluster shape (and optional GM\n"
        "                 tree) from a [topology] INI file instead of\n"
        "                 deriving it from the mix\n"
        "  --faults FILE  load a fault-injection script (docs/FAULTS.md)\n"
        "                 and run the scenario under it\n"
        "  --control-log FILE  mirror every control-plane message and\n"
        "                 dump the merged event log as CSV\n"
        "  --metrics FILE  export the metrics registry after the run\n"
        "                 (.json = JSON, anything else = Prometheus\n"
        "                 text exposition)\n"
        "  --cascade FILE  trace GM->EM->SM budget cascades and dump\n"
        "                 the trace-stamped view of the control-plane\n"
        "                 log as CSV (checkpointed, so it survives\n"
        "                 --resume)\n"
        "  --http SPEC    serve live observability endpoints while the\n"
        "                 run is in flight: GET /metrics, /metrics.json,\n"
        "                 /healthz and /profilez on SPEC (PORT, tcp:PORT\n"
        "                 or unix:PATH); scrapes read an atomically\n"
        "                 swapped per-tick snapshot and never touch\n"
        "                 controller state (docs/OBSERVABILITY.md)\n"
        "  --http-linger MS  keep serving for MS milliseconds after the\n"
        "                 run ends (or until GET /quitz)\n"
        "  --trace FILE[:FILTER]  record per-controller decision traces\n"
        "                 and dump the merged log as CSV; an optional\n"
        "                 FILTER keeps only channels whose name contains\n"
        "                 the substring (e.g. trace.csv:SM/)\n"
        "  --profile FILE  profile the engine and write the per-actor\n"
        "                 report (.json = JSON, else a text table)\n"
        "  --log-level L  debug | info | warn | error (default warn)\n"
        "  --dump-config  print the effective configuration as INI\n"
        "  --series FILE  dump per-tick power/perf series as CSV\n"
        "  --record FILE  dump per-server/enclosure telemetry as CSV\n"
        "  --record-stride N  telemetry sampling stride (default 1,\n"
        "                 matching sim::Recorder::Options)\n"
        "  --plan FILE    run a distributed plan (docs/DISTRIBUTED.md)\n"
        "                 in this single process — the byte-exact\n"
        "                 oracle a --distributed run is diffed against;\n"
        "                 only output and throughput knobs (--record,\n"
        "                 --metrics, --cascade, --http, --threads,\n"
        "                 --log-level) combine with it\n"
        "  --distributed FILE  run the plan as a process tree: this\n"
        "                 process becomes the rank-0 supervisor and\n"
        "                 spawns one npsnode per [node] section over\n"
        "                 the plan's unix/tcp socket; the recorder CSV\n"
        "                 is byte-identical to --plan on the same file\n"
        "  --serve SPEC   daemon mode (docs/STREAMING.md): instead of\n"
        "                 replaying traces, read live NPSF-framed\n"
        "                 utilization samples from SPEC — stdin,\n"
        "                 unix:PATH, or tcp:PORT (loopback). One tick is\n"
        "                 simulated per TICK barrier frame; the run ends\n"
        "                 early and cleanly if the feeder goes away.\n"
        "                 Output is byte-identical to the batch run fed\n"
        "                 the same samples (tools/npsfeed replays a\n"
        "                 trace campaign as frames)\n"
        "  --checkpoint-every N  write a crash-safe snapshot after every\n"
        "                 N ticks (needs --checkpoint-dir)\n"
        "  --checkpoint-dir D  directory for ckpt-<tick>.nps snapshots\n"
        "  --resume WHAT  continue from a snapshot: a file path, or\n"
        "                 'latest' to pick the newest valid snapshot in\n"
        "                 --checkpoint-dir (corrupt files are skipped\n"
        "                 with a warning); the resumed run reproduces an\n"
        "                 uninterrupted one byte-for-byte\n");
    std::exit(0);
}

Args
parse(int argc, char **argv)
{
    Args args;
    auto need = [&](int i) {
        if (i + 1 >= argc)
            util::fatal("%s needs a value", argv[i]);
        return argv[i + 1];
    };
    // Numeric flags are strict: "abc", "20x" or "-1" is an error, not a
    // silently wrapped or truncated value.
    auto integer = [&](int i, uint64_t max) {
        uint64_t v = 0;
        if (!util::parseUnsigned(need(i), v) || v > max)
            util::fatal("%s: bad value '%s' (want an integer in [0, %llu])",
                        argv[i], argv[i + 1],
                        static_cast<unsigned long long>(max));
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--scenario")
            args.scenario = need(i), ++i;
        else if (a == "--machine")
            args.machine = need(i), ++i;
        else if (a == "--mix")
            args.mix = need(i), ++i;
        else if (a == "--budgets")
            args.budgets = need(i), ++i;
        else if (a == "--ticks") {
            args.ticks = integer(i, SIZE_MAX);
            args.ticks_set = true;
            ++i;
        }
        else if (a == "--seed")
            args.seed = integer(i, UINT64_MAX), ++i;
        else if (a == "--threads") {
            args.threads = static_cast<unsigned>(integer(i, UINT_MAX));
            args.threads_set = true;
            ++i;
        }
        else if (a == "--config")
            args.config_path = need(i), ++i;
        else if (a == "--topology")
            args.topology_path = need(i), ++i;
        else if (a == "--faults")
            args.faults_path = need(i), ++i;
        else if (a == "--control-log")
            args.control_log_path = need(i), ++i;
        else if (a == "--metrics")
            args.metrics_path = need(i), ++i;
        else if (a == "--cascade")
            args.cascade_path = need(i), ++i;
        else if (a == "--http")
            args.http = need(i), ++i;
        else if (a == "--http-linger") {
            args.http_linger_ms =
                static_cast<unsigned>(integer(i, UINT_MAX));
            args.http_linger_set = true;
            ++i;
        }
        else if (a == "--trace") {
            // FILE[:FILTER] — split at the first ':' so the filter part
            // may itself contain one (channel names never do today).
            std::string spec = need(i);
            std::string::size_type colon = spec.find(':');
            if (colon == std::string::npos) {
                args.trace_path = spec;
            } else {
                args.trace_path = spec.substr(0, colon);
                args.trace_filter = spec.substr(colon + 1);
            }
            if (args.trace_path.empty())
                util::fatal("--trace needs a file name before ':'");
            ++i;
        }
        else if (a == "--profile")
            args.profile_path = need(i), ++i;
        else if (a == "--log-level")
            args.log_level = need(i), ++i;
        else if (a == "--dump-config")
            args.dump_config = true;
        else if (a == "--series")
            args.series_path = need(i), ++i;
        else if (a == "--record")
            args.record_path = need(i), ++i;
        else if (a == "--record-stride") {
            args.record_stride = static_cast<unsigned>(integer(i, UINT_MAX));
            args.record_stride_set = true;
            ++i;
        }
        else if (a == "--checkpoint-every")
            args.checkpoint_every = integer(i, SIZE_MAX), ++i;
        else if (a == "--checkpoint-dir")
            args.checkpoint_dir = need(i), ++i;
        else if (a == "--resume")
            args.resume = need(i), ++i;
        else if (a == "--serve")
            args.serve = need(i), ++i;
        else if (a == "--plan")
            args.plan_single = need(i), ++i;
        else if (a == "--distributed")
            args.distributed = need(i), ++i;
        else if (a == "--two-pstates")
            args.two_pstates = true;
        else if (a == "--no-power-off")
            args.no_power_off = true;
        else if (a == "--cap")
            args.enable_cap = true;
        else if (a == "--mem")
            args.enable_mem = true;
        else if (a == "--help" || a == "-h")
            usage();
        else
            util::fatal("unknown argument '%s' (try --help)", a.c_str());
    }
    return args;
}

core::CoordinationConfig
configFor(const Args &args)
{
    if (!args.config_path.empty()) {
        core::CoordinationConfig cfg =
            core::loadConfigFile(args.config_path);
        if (args.threads_set)
            cfg.threads = args.threads;
        return cfg;
    }
    core::CoordinationConfig cfg;
    if (args.scenario == "coordinated")
        cfg = core::coordinatedConfig();
    else if (args.scenario == "uncoordinated")
        cfg = core::uncoordinatedConfig();
    else if (args.scenario == "baseline")
        cfg = core::baselineConfig();
    else if (args.scenario == "novmc")
        cfg = core::scenarioConfig(core::Scenario::NoVmc);
    else if (args.scenario == "vmconly")
        cfg = core::scenarioConfig(core::Scenario::VmcOnly);
    else if (args.scenario == "appr-util")
        cfg = core::scenarioConfig(core::Scenario::CoordApparentUtil);
    else if (args.scenario == "no-feedback")
        cfg = core::scenarioConfig(core::Scenario::CoordNoFeedback);
    else if (args.scenario == "no-budget-limits")
        cfg = core::scenarioConfig(core::Scenario::CoordNoBudgetLimits);
    else
        util::fatal("unknown scenario '%s'", args.scenario.c_str());

    if (args.budgets == "20-15-10")
        cfg.budgets = sim::BudgetConfig::paper201510();
    else if (args.budgets == "25-20-15")
        cfg.budgets = sim::BudgetConfig::paper252015();
    else if (args.budgets == "30-25-20")
        cfg.budgets = sim::BudgetConfig::paper302520();
    else
        util::fatal("unknown budgets '%s'", args.budgets.c_str());

    if (args.no_power_off)
        cfg.vmc.allow_power_off = false;
    cfg.enable_cap = args.enable_cap;
    cfg.enable_mem = args.enable_mem;
    if (args.threads_set)
        cfg.threads = args.threads;
    return cfg;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("cannot open %s", path.c_str());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return text;
}

/** Pick JSON output when the target file is named *.json. */
bool
wantsJson(const std::string &path)
{
    static const std::string ext = ".json";
    return path.size() >= ext.size() &&
           path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

trace::Mix
mixFor(const std::string &name)
{
    for (auto mix : trace::allMixes()) {
        if (name == trace::mixName(mix))
            return mix;
    }
    util::fatal("unknown mix '%s'", name.c_str());
}

/**
 * Everything a resumed run needs to rebuild the simulation that wrote
 * the snapshot, stored in the npsim-level "meta" section: the resolved
 * config and topology as INI text (bit-exact round trip) plus the
 * driver inputs that live outside the config.
 */
struct ResumeMeta
{
    std::string config_ini;
    std::string topo_ini;
    std::string scenario;
    std::string machine;
    std::string mix;
    std::string budgets;
    bool two_pstates = false;
    uint64_t seed = 0;
    size_t total_ticks = 0;
    size_t done_ticks = 0;
    unsigned record_stride = 1;
    bool has_recorder = false;
    bool keep_series = false;
};

void
writeMeta(ckpt::SectionWriter &w, const Args &args,
          const core::CoordinationConfig &cfg, const sim::Topology &topo,
          size_t done, bool has_recorder, bool keep_series)
{
    w.putString(core::configToIni(cfg).toText());
    w.putString(core::topologyToIni(topo).toText());
    w.putString(args.scenario);
    w.putString(args.machine);
    w.putString(args.mix);
    w.putString(args.budgets);
    w.putBool(args.two_pstates);
    w.putU64(args.seed);
    w.putU64(args.ticks);
    w.putU64(done);
    w.putU32(args.record_stride);
    w.putBool(has_recorder);
    w.putBool(keep_series);
}

ResumeMeta
readMeta(const ckpt::SnapshotReader &snap)
{
    if (!snap.has("meta"))
        util::fatal("checkpoint %s has no 'meta' section — not written "
                    "by npsim", snap.path().c_str());
    ckpt::SectionReader r = snap.section("meta");
    ResumeMeta m;
    m.config_ini = r.getString();
    m.topo_ini = r.getString();
    m.scenario = r.getString();
    m.machine = r.getString();
    m.mix = r.getString();
    m.budgets = r.getString();
    m.two_pstates = r.getBool();
    m.seed = r.getU64();
    m.total_ticks = static_cast<size_t>(r.getU64());
    m.done_ticks = static_cast<size_t>(r.getU64());
    m.record_stride = r.getU32();
    m.has_recorder = r.getBool();
    m.keep_series = r.getBool();
    r.expectEnd();
    return m;
}

std::string
checkpointPath(const std::string &dir, size_t tick)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "ckpt-%010zu.nps", tick);
    return dir + "/" + buf;
}

void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) == 0)
        return;
    if (errno == EEXIST) {
        struct stat st;
        if (::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
            return;
        util::fatal("checkpoint dir %s exists but is not a directory",
                    dir.c_str());
    }
    util::fatal("cannot create checkpoint dir %s: %s", dir.c_str(),
                std::strerror(errno));
}

/** Names of ckpt-*.nps files in @p dir, newest (highest tick) first. */
std::vector<std::string>
listCheckpoints(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        util::fatal("cannot open checkpoint dir %s: %s", dir.c_str(),
                    std::strerror(errno));
    std::vector<std::string> names;
    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.size() > 9 && name.compare(0, 5, "ckpt-") == 0 &&
            name.compare(name.size() - 4, 4, ".nps") == 0)
            names.push_back(name);
    }
    ::closedir(d);
    // Tick numbers are zero-padded, so lexicographic order is tick order.
    std::sort(names.rbegin(), names.rend());
    return names;
}

/**
 * Load the snapshot named by --resume into @p snap and return its path.
 * A file path is loaded strictly (corruption is fatal); 'latest' walks
 * the checkpoint dir newest-first, skipping corrupt snapshots with a
 * warning so a crash mid-write falls back to the previous one.
 */
std::string
loadResumeSnapshot(const Args &args, ckpt::SnapshotReader &snap)
{
    std::string err;
    if (args.resume != "latest") {
        if (!snap.load(args.resume, err))
            util::fatal("cannot resume from %s: %s", args.resume.c_str(),
                        err.c_str());
        return args.resume;
    }
    if (args.checkpoint_dir.empty())
        util::fatal("--resume latest needs --checkpoint-dir");
    std::vector<std::string> names = listCheckpoints(args.checkpoint_dir);
    if (names.empty())
        util::fatal("no checkpoints (ckpt-*.nps) in %s",
                    args.checkpoint_dir.c_str());
    for (const std::string &name : names) {
        std::string path = args.checkpoint_dir + "/" + name;
        if (snap.load(path, err))
            return path;
        util::warn("skipping corrupt checkpoint %s: %s", path.c_str(),
                   err.c_str());
    }
    util::fatal("no valid checkpoint in %s: all %zu candidates are "
                "corrupt or unreadable", args.checkpoint_dir.c_str(),
                names.size());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);
    if (!args.log_level.empty()) {
        util::LogLevel level;
        if (!util::logLevelFromName(args.log_level, level))
            util::fatal("unknown log level '%s' (try debug, info, warn "
                        "or error)", args.log_level.c_str());
        util::setLogLevel(level);
    }
    if (!args.plan_single.empty() || !args.distributed.empty()) {
        // The plan-driven modes own the whole run definition; the only
        // flags that combine with them are output and throughput knobs.
        if (!args.plan_single.empty() && !args.distributed.empty())
            util::fatal("--plan and --distributed are exclusive: the "
                        "former is the single-process oracle of the "
                        "latter");
        if (!args.config_path.empty() || !args.faults_path.empty() ||
            !args.topology_path.empty() || !args.serve.empty() ||
            !args.resume.empty() || args.checkpoint_every > 0)
            util::fatal("--plan/--distributed cannot be combined with "
                        "--config, --faults, --topology, --serve or "
                        "checkpointing flags: the plan file defines "
                        "the whole run (docs/DISTRIBUTED.md)");
        unsigned threads = args.threads_set ? args.threads : 0;
        core::dist::ObsOutputs obs;
        obs.metrics_path = args.metrics_path;
        obs.cascade_path = args.cascade_path;
        obs.http = args.http;
        obs.http_linger_ms = args.http_linger_ms;
        if (!args.plan_single.empty()) {
            core::DistPlan plan = core::loadPlanFile(args.plan_single);
            return core::dist::runPlanSingle(plan, args.record_path,
                                             threads, obs);
        }
        core::DistPlan plan = core::loadPlanFile(args.distributed);
        return core::dist::runSupervisor(plan, args.distributed,
                                         args.record_path, threads, obs);
    }
    bool resuming = !args.resume.empty();
    if (args.checkpoint_every > 0 && args.checkpoint_dir.empty())
        util::fatal("--checkpoint-every needs --checkpoint-dir");

    ckpt::SnapshotReader snap;
    ResumeMeta meta;
    std::string resume_path;
    if (resuming) {
        if (!args.config_path.empty() || !args.faults_path.empty() ||
            !args.topology_path.empty())
            util::fatal("--resume cannot be combined with --config, "
                        "--faults or --topology: the checkpoint embeds "
                        "the original configuration and topology");
        resume_path = loadResumeSnapshot(args, snap);
        meta = readMeta(snap);
        // The simulation's identity comes from the snapshot; the resume
        // command line only names output files (and may extend --ticks
        // or change --threads — both preserve byte-identical results).
        args.scenario = meta.scenario;
        args.machine = meta.machine;
        args.mix = meta.mix;
        args.budgets = meta.budgets;
        args.two_pstates = meta.two_pstates;
        args.seed = meta.seed;
        if (!args.ticks_set)
            args.ticks = meta.total_ticks;
        if (args.record_stride_set &&
            args.record_stride != meta.record_stride)
            util::fatal("--record-stride %u does not match the stride %u "
                        "the checkpointed run recorded with",
                        args.record_stride, meta.record_stride);
        args.record_stride = meta.record_stride;
    }

    core::CoordinationConfig cfg;
    sim::Topology topo;
    if (resuming) {
        cfg = core::configFromIni(util::parseIni(meta.config_ini));
        topo = core::topologyFromIni(util::parseIni(meta.topo_ini));
        if (args.threads_set)
            cfg.threads = args.threads;
        if (!args.metrics_path.empty() && !cfg.observability.metrics)
            util::fatal("--metrics on resume, but the checkpointed run "
                        "did not enable metrics");
        if (!args.trace_path.empty() && !cfg.observability.trace)
            util::fatal("--trace on resume, but the checkpointed run "
                        "did not enable tracing");
        if (!args.control_log_path.empty() && !cfg.log_control_plane)
            util::fatal("--control-log on resume, but the checkpointed "
                        "run did not log the control plane");
        if (!args.profile_path.empty())
            cfg.observability.profile = true; // wall clock only, no state
        if (!args.cascade_path.empty() && !cfg.observability.cascade)
            util::fatal("--cascade on resume, but the checkpointed run "
                        "did not enable the cascade trace");
        if (!args.http.empty()) {
            // The live plane itself is stateless, but it serves the
            // metrics registry — which loadState only restores when the
            // original run created one.
            if (!cfg.observability.metrics)
                util::fatal("--http on resume, but the checkpointed run "
                            "did not enable metrics (the snapshot holds "
                            "no registry to serve)");
            cfg.observability.http = args.http;
        }
    } else {
        cfg = configFor(args);
        if (!args.metrics_path.empty())
            cfg.observability.metrics = true;
        if (!args.cascade_path.empty())
            cfg.observability.cascade = true;
        if (!args.http.empty()) {
            cfg.observability.http = args.http;
            // The endpoint serves the registry; arm it even without
            // --metrics so `--http` alone is a complete live setup.
            cfg.observability.metrics = true;
        }
        if (args.http_linger_set)
            cfg.observability.http_linger_ms = args.http_linger_ms;
        if (!args.trace_path.empty()) {
            cfg.observability.trace = true;
            cfg.observability.trace_filter = args.trace_filter;
        }
        if (!args.profile_path.empty())
            cfg.observability.profile = true;
        if (!args.faults_path.empty()) {
            cfg.faults.script = readFile(args.faults_path);
            fault::FaultSchedule::parse(cfg.faults.script); // validate early
            cfg.faults.enabled = true;
        }
        if (!args.control_log_path.empty())
            cfg.log_control_plane = true;
        if (!args.serve.empty())
            cfg.stream.enabled = true;
    }
    if (resuming) {
        // A mid-stream snapshot holds no staged demand — only a feed can
        // re-stage the resume tick, so the mode must match the original.
        if (cfg.stream.enabled && args.serve.empty())
            util::fatal("the checkpointed run was stream-fed; pass "
                        "--serve SPEC to resume it (the staged demand "
                        "is re-sent by the feeder, not checkpointed)");
        if (!cfg.stream.enabled && !args.serve.empty())
            util::fatal("--serve on resume, but the checkpointed run "
                        "replayed traces; resume it without --serve");
    }
    if (args.dump_config) {
        std::printf("%s", core::configToIni(cfg).toText().c_str());
        return 0;
    }

    trace::GeneratorConfig gen;
    gen.seed = args.seed;
    trace::WorkloadLibrary library(gen);
    trace::Mix mix = mixFor(args.mix);

    model::MachineSpec machine = model::machineByName(args.machine);
    if (args.two_pstates)
        machine = machine.extremesOnly();

    if (!resuming)
        topo = args.topology_path.empty()
                   ? core::ExperimentRunner::topologyFor(mix)
                   : core::loadTopologyFile(args.topology_path);
    // Fail before any construction: a topology too small for the mix (or
    // structurally broken) should die with a message naming the inputs,
    // not surface as a mid-build error.
    topo.validate();
    size_t workloads = library.mix(mix).size();
    if (workloads > topo.num_servers) {
        util::fatal("topology '%s' has %u servers but mix %s carries %zu "
                    "workloads; pick a larger topology or a smaller mix",
                    args.topology_path.empty() ? "(built-in)"
                                               : args.topology_path.c_str(),
                    topo.num_servers, args.mix.c_str(), workloads);
    }
    if (topo.hasTree() && !cfg.enable_gm) {
        util::fatal("topology '%s' defines a GM tree but the "
                    "configuration disables the group manager "
                    "(enable_gm = false)",
                    args.topology_path.empty() ? "(built-in)"
                                               : args.topology_path.c_str());
    }
    bool keep_series = !args.series_path.empty() ||
                       (resuming && meta.keep_series);
    if (resuming && !args.series_path.empty() && !meta.keep_series)
        util::fatal("--series on resume, but the checkpointed run did "
                    "not keep per-tick series; the original run must "
                    "also use --series");

    core::Coordinator coordinator(cfg, topo, machine, library.mix(mix),
                                  keep_series);
    std::shared_ptr<sim::Recorder> recorder;
    if (resuming && meta.has_recorder && args.record_path.empty())
        util::fatal("the checkpointed run recorded telemetry; pass "
                    "--record FILE when resuming (the Recorder is part "
                    "of the checkpointed engine roster)");
    if (resuming && !meta.has_recorder && !args.record_path.empty())
        util::fatal("--record on resume, but the checkpoint has no "
                    "recorder state; the original run must also use "
                    "--record");
    if (!args.record_path.empty()) {
        sim::Recorder::Options opts;
        opts.stride = args.record_stride;
        recorder = std::make_shared<sim::Recorder>(coordinator.cluster(),
                                                   opts);
        recorder->setFaultInjector(coordinator.faultInjector());
        coordinator.engine().addActor(recorder);
    }

    std::unique_ptr<stream::StreamSource> source;
    std::unique_ptr<stream::ClusterFeed> feed;
    if (cfg.stream.enabled) {
        std::fprintf(stderr, "npsim: serving on %s, waiting for the "
                             "feeder...\n", args.serve.c_str());
        int fd = stream::serveAndAccept(args.serve);
        source = std::make_unique<stream::StreamSource>(
            fd, coordinator.cluster().numVms(), cfg.stream);
        feed = std::make_unique<stream::ClusterFeed>(
            coordinator.cluster(), *source, cfg.stream);
        coordinator.engine().setTickSource(feed.get());
        coordinator.attachStreamHealth(feed.get());
        // The recorder grows a `faults` column whenever a fault oracle
        // is attached; wiring the stream oracle in only when a fault
        // campaign already runs keeps a pure stream-fed run's CSV
        // byte-identical to the batch run it replays.
        if (recorder && coordinator.faultInjector())
            recorder->setStreamHealth(feed.get());
        if (coordinator.observability())
            feed->attachObs(coordinator.observability()->metrics());
    }

    // Live observability plane (docs/OBSERVABILITY.md): the publisher
    // snapshots the registry at its cadence — and always feeds the
    // per-tick wall-clock histogram — while the exporter's serve thread
    // answers scrapes from the latest atomically-swapped snapshot.
    // Observation only: a scrape never touches controller state, so
    // recorder CSVs are byte-identical with the plane on or off.
    std::unique_ptr<obs::live::LiveExporter> exporter;
    std::unique_ptr<obs::live::LivePublisher> publisher;
    obs::MetricsRegistry *live_reg =
        coordinator.observability() ? coordinator.observability()->metrics()
                                    : nullptr;
    if (live_reg) {
        if (!cfg.observability.http.empty())
            exporter = std::make_unique<obs::live::LiveExporter>(
                cfg.observability.http, /*rank=*/0);
        publisher = std::make_unique<obs::live::LivePublisher>(
            live_reg, coordinator.profiler(),
            [&coordinator] { coordinator.updateRunGauges(); },
            exporter.get(), cfg.observability.publish_every, /*rank=*/0);
        coordinator.engine().setTickObserver(publisher.get());
    }

    size_t done = 0;
    if (resuming) {
        coordinator.loadState(snap);
        if (recorder) {
            ckpt::SectionReader r = snap.section("recorder");
            recorder->loadState(r);
            r.expectEnd();
        }
        if (feed) {
            ckpt::SectionReader r = snap.section("stream");
            feed->loadState(r);
            r.expectEnd();
        }
        done = meta.done_ticks;
        if (done > args.ticks)
            util::fatal("checkpoint %s is at tick %zu, beyond --ticks "
                        "%zu", resume_path.c_str(), done, args.ticks);
        // Progress notes go to stderr so stdout stays byte-identical to
        // an uninterrupted run.
        std::fprintf(stderr, "npsim: resumed at tick %zu from %s\n",
                     done, resume_path.c_str());
    }

    obs::Histogram *ckpt_ms = nullptr;
    if (args.checkpoint_every > 0 && live_reg)
        ckpt_ms = live_reg->histogram(
            "nps_rt_ckpt_write_ms", "",
            "Wall-clock checkpoint write latency (ms)",
            obs::MetricsRegistry::runtimeMsBounds());
    auto writeCheckpoint = [&](size_t at) {
        ckpt::SnapshotWriter out;
        coordinator.saveState(out);
        if (recorder)
            recorder->saveState(out.section("recorder"));
        if (feed)
            feed->saveState(out.section("stream"));
        writeMeta(out.section("meta"), args, cfg, topo, at,
                  recorder != nullptr, keep_series);
        std::string path = checkpointPath(args.checkpoint_dir, at);
        auto started = std::chrono::steady_clock::now();
        out.writeFile(path);
        if (ckpt_ms)
            ckpt_ms->observe(std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started).count());
        std::fprintf(stderr, "npsim: checkpoint %s (tick %zu)\n",
                     path.c_str(), at);
    };
    if (args.checkpoint_every > 0) {
        ensureDir(args.checkpoint_dir);
        while (done < args.ticks) {
            size_t chunk = std::min(args.checkpoint_every,
                                    args.ticks - done);
            size_t ran = coordinator.run(chunk);
            done += ran;
            writeCheckpoint(done);
            if (ran < chunk)
                break; // the telemetry feed ended
        }
    } else if (done < args.ticks) {
        done += coordinator.run(args.ticks - done);
    }
    if (feed && done < args.ticks)
        std::fprintf(stderr, "npsim: stream ended after %zu of %zu "
                             "ticks\n", done, args.ticks);
    if (publisher) {
        // Publish the final snapshot before any export renders, so a
        // last mid-run scrape and the --metrics file are byte-equal.
        coordinator.updateRunGauges();
        publisher->publishFinal(done ? done - 1 : 0);
    }
    sim::MetricsSummary m = coordinator.summary();

    core::Coordinator baseline(core::baselineConfig(), topo, machine,
                               library.mix(mix));
    baseline.run(done);

    std::printf("scenario=%s machine=%s mix=%s budgets=%s ticks=%zu\n",
                args.scenario.c_str(), machine.name().c_str(),
                args.mix.c_str(), args.budgets.c_str(), args.ticks);
    std::printf("power:  mean %.1f W, peak %.1f W, savings %.2f %%\n",
                m.mean_power, m.peak_power,
                sim::powerSavings(baseline.summary(), m) * 100.0);
    std::printf("perf:   loss %.3f %%\n", m.perf_loss * 100.0);
    std::printf("caps:   GM %.2f %%  EM %.2f %%  SM %.2f %% of ticks "
                "violated\n", m.gm_violation * 100.0,
                m.em_violation * 100.0, m.sm_violation * 100.0);
    if (coordinator.vmc()) {
        const auto &v = coordinator.vmc()->stats();
        std::printf("vmc:    %lu epochs, %lu adoptions, %lu migrations, "
                    "%lu infeasible\n", v.epochs, v.adoptions,
                    v.migrations, v.infeasible);
    }
    if (coordinator.faultInjector()) {
        const fault::DegradeStats &d = m.degrade;
        std::printf("faults: %zu scheduled events\n",
                    coordinator.faultInjector()->schedule().events()
                        .size());
        std::printf("        outages %llu ticks / %llu steps, "
                    "%llu restarts\n",
                    (unsigned long long)d.outage_ticks,
                    (unsigned long long)d.outage_steps,
                    (unsigned long long)d.restarts);
        std::printf("        leases: %llu expiries, %llu fallback steps; "
                    "EC fallback %llu steps\n",
                    (unsigned long long)d.lease_expiries,
                    (unsigned long long)d.lease_fallback_steps,
                    (unsigned long long)d.ec_fallback_steps);
        std::printf("        links: %llu dropped, %llu stale; "
                    "%llu stuck actuations, %llu noisy reads\n",
                    (unsigned long long)d.dropped_budgets,
                    (unsigned long long)d.stale_budgets,
                    (unsigned long long)d.stuck_actuations,
                    (unsigned long long)d.noisy_reads);
    }

    // Every output below goes through writeFileAtomic: the file appears
    // complete or not at all, and any I/O failure is fatal (non-zero
    // exit) with the path and errno string.
    if (!args.series_path.empty()) {
        std::ostringstream out;
        nps::util::CsvWriter w(out);
        w.row("tick", "group_watts", "perf");
        const auto &power = coordinator.metrics().powerSeries();
        const auto &perf = coordinator.metrics().perfSeries();
        for (size_t t = 0; t < power.size(); ++t)
            w.row(static_cast<unsigned long>(t), power[t], perf[t]);
        ckpt::writeFileAtomic(args.series_path, out.str());
        std::printf("series: wrote %zu rows to %s\n", power.size(),
                    args.series_path.c_str());
    }
    if (recorder) {
        std::ostringstream out;
        recorder->writeCsv(out);
        ckpt::writeFileAtomic(args.record_path, out.str());
        std::printf("record: wrote %zu samples to %s\n",
                    recorder->samples(), args.record_path.c_str());
    }
    if (!args.control_log_path.empty()) {
        const bus::ControlPlaneLog *log = coordinator.controlLog();
        std::ostringstream out;
        log->writeCsv(out);
        ckpt::writeFileAtomic(args.control_log_path, out.str());
        std::printf("control-log: wrote %zu events on %zu links to %s\n",
                    log->totalEvents(), log->numLinks(),
                    args.control_log_path.c_str());
    }
    if (!args.metrics_path.empty()) {
        const obs::MetricsRegistry *reg = coordinator.metricsRegistry();
        std::ostringstream out;
        if (wantsJson(args.metrics_path))
            reg->writeJson(out);
        else
            reg->writeProm(out);
        ckpt::writeFileAtomic(args.metrics_path, out.str());
        std::printf("metrics: wrote %zu series in %zu families to %s\n",
                    reg->numSeries(), reg->numFamilies(),
                    args.metrics_path.c_str());
    }
    if (!args.trace_path.empty()) {
        const obs::TraceSink *trace = coordinator.traceSink();
        std::ostringstream out;
        trace->writeCsv(out);
        ckpt::writeFileAtomic(args.trace_path, out.str());
        std::printf("trace: wrote %zu events on %zu channels to %s",
                    trace->totalEvents(), trace->numChannels(),
                    args.trace_path.c_str());
        if (trace->totalDropped() > 0)
            std::printf(" (%llu dropped by the ring cap)",
                        (unsigned long long)trace->totalDropped());
        std::printf("\n");
    }
    if (!args.cascade_path.empty()) {
        const bus::ControlPlaneLog *log = coordinator.controlLog();
        std::ostringstream out;
        log->writeCascadeCsv(out);
        ckpt::writeFileAtomic(args.cascade_path, out.str());
        std::printf("cascade: wrote %zu hops to %s\n",
                    log->tracedEvents(), args.cascade_path.c_str());
    }
    if (!args.profile_path.empty()) {
        const obs::EngineProfiler *prof = coordinator.profiler();
        std::ostringstream out;
        if (wantsJson(args.profile_path))
            prof->writeJson(out);
        else
            prof->writeTable(out);
        ckpt::writeFileAtomic(args.profile_path, out.str());
        std::printf("profile: %zu ticks over %zu actors to %s\n",
                    prof->ticks(), prof->actorStats().size(),
                    args.profile_path.c_str());
    }
    if (exporter)
        exporter->linger(args.http_linger_set
                             ? args.http_linger_ms
                             : cfg.observability.http_linger_ms);
    if (publisher)
        coordinator.engine().setTickObserver(nullptr);
    return 0;
}
