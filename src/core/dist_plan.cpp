#include "core/dist_plan.h"

#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "fault/netem/netem.h"
#include "util/logging.h"

namespace nps {
namespace core {

namespace {

using util::IniDocument;

const char *
levelName(bus::OwnerLevel level)
{
    switch (level) {
    case bus::OwnerLevel::Gm: return "gm";
    case bus::OwnerLevel::Em: return "em";
    case bus::OwnerLevel::Sm: return "sm";
    case bus::OwnerLevel::Ec: return "ec";
    case bus::OwnerLevel::Vmc: return "vmc";
    case bus::OwnerLevel::Cap: return "cap";
    case bus::OwnerLevel::Mem: return "mem";
    }
    return "?";
}

std::string
trim(const std::string &s)
{
    size_t begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        std::string item =
            trim(comma == std::string::npos
                     ? text.substr(start)
                     : text.substr(start, comma - start));
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

long
parseLong(const std::string &raw, const char *what,
          const std::string &context)
{
    char *end = nullptr;
    long value = std::strtol(raw.c_str(), &end, 10);
    if (raw.empty() || end == raw.c_str() || *end != '\0' || value < 0)
        util::fatal("plan: bad %s '%s' in '%s'", what, raw.c_str(),
                    context.c_str());
    return value;
}

DistPlan::Selector
parseSelector(const std::string &text, const std::string &node)
{
    static const std::map<std::string, bus::OwnerLevel> global{
        {"gm", bus::OwnerLevel::Gm},
        {"em", bus::OwnerLevel::Em},
        {"vmc", bus::OwnerLevel::Vmc},
    };
    static const std::set<std::string> sharded{"sm", "ec", "cap", "mem"};

    std::string level = text;
    std::string inst;
    size_t colon = text.find(':');
    if (colon != std::string::npos) {
        level = trim(text.substr(0, colon));
        inst = trim(text.substr(colon + 1));
    }
    auto it = global.find(level);
    if (it == global.end()) {
        if (sharded.count(level))
            util::fatal("plan: [node %s] claims '%s' — per-server "
                        "levels (sm, ec, cap, mem) are sharded across "
                        "worker threads and must stay on the "
                        "supervisor; only gm, em and vmc can be "
                        "distributed (docs/DISTRIBUTED.md)",
                        node.c_str(), text.c_str());
        util::fatal("plan: [node %s] has unknown level in '%s' (want "
                    "gm, em or vmc)", node.c_str(), text.c_str());
    }

    DistPlan::Selector sel;
    sel.level = it->second;
    if (inst.empty() || inst == "*")
        sel.all = true; // bare 'vmc' and 'gm:*' both mean every instance
    else
        sel.id = parseLong(inst, "instance id", text);
    return sel;
}

DistPlan::Kill
parseKill(const std::string &text)
{
    size_t at = text.find('@');
    if (at == std::string::npos)
        util::fatal("plan: bad kill '%s' (want RANK@TICK)", text.c_str());
    DistPlan::Kill kill;
    kill.rank = static_cast<int>(
        parseLong(trim(text.substr(0, at)), "rank", text));
    kill.tick = static_cast<uint64_t>(
        parseLong(trim(text.substr(at + 1)), "tick", text));
    return kill;
}

/** Fatal when two selectors could claim the same controller. */
void
checkOverlap(const DistPlan &plan)
{
    // (level, id) -> claiming node name; id -1 stands for '*'.
    std::map<std::pair<int, long>, std::string> claims;
    for (const auto &node : plan.nodes) {
        for (const auto &sel : node.selectors) {
            int lv = static_cast<int>(sel.level);
            long id = sel.all ? -1 : sel.id;
            auto ins = claims.emplace(std::make_pair(lv, id), node.name);
            bool clash = !ins.second;
            if (!clash && sel.all) {
                // A new '*' collides with any existing specific claim.
                for (const auto &c : claims)
                    if (c.first.first == lv && c.first.second >= 0)
                        clash = true;
            }
            if (!clash && !sel.all)
                clash = claims.count(std::make_pair(lv, -1L)) > 0;
            if (clash)
                util::fatal("plan: [node %s] claims %s:%s, which "
                            "overlaps an earlier claim — each "
                            "controller instance can live in exactly "
                            "one process", node.name.c_str(),
                            levelName(sel.level),
                            sel.all ? "*"
                                    : std::to_string(sel.id).c_str());
        }
    }
}

} // namespace

int
DistPlan::ownerOf(bus::OwnerLevel level, long id) const
{
    for (size_t n = 0; n < nodes.size(); ++n) {
        for (const auto &sel : nodes[n].selectors) {
            if (sel.level == level && (sel.all || sel.id == id))
                return static_cast<int>(n) + 1;
        }
    }
    return 0;
}

std::string
DistPlan::obsHttpFor(int rank) const
{
    std::string out = obs_http;
    size_t at = out.find("%r");
    if (at != std::string::npos)
        out.replace(at, 2, std::to_string(rank));
    return out;
}

bus::OwnerFn
DistPlan::ownerFn() const
{
    DistPlan copy = *this;
    return [copy](bus::OwnerLevel level, long id) {
        return copy.ownerOf(level, id);
    };
}

DistPlan
planFromIni(const IniDocument &ini)
{
    static const std::set<std::string> dist_keys{
        "transport",      "socket",
        "timeout_ms",     "restart_after",
        "hb_ms",          "peer_timeout_ms",
        "reconnect_attempts", "reconnect_base_ms",
        "reconnect_max_ms"};
    static const std::set<std::string> run_keys{
        "scenario", "machine", "mix", "budgets", "ticks", "seed",
        "threads", "record_stride"};

    DistPlan plan;
    for (const auto &section : ini.sections()) {
        if (section == "dist") {
            for (const auto &key : ini.keys(section))
                if (!dist_keys.count(key))
                    util::fatal("plan: unknown key '%s' in [dist]",
                                key.c_str());
        } else if (section == "run") {
            for (const auto &key : ini.keys(section))
                if (!run_keys.count(key))
                    util::fatal("plan: unknown key '%s' in [run]",
                                key.c_str());
        } else if (section == "obs") {
            static const std::set<std::string> obs_keys{
                "metrics_every", "http", "http_linger_ms", "cascade"};
            for (const auto &key : ini.keys(section))
                if (!obs_keys.count(key))
                    util::fatal("plan: unknown key '%s' in [obs]",
                                key.c_str());
            // Presence of the section switches the replicated
            // registries on; the knobs below only tune it.
            plan.obs_metrics = true;
        } else if (section == "chaos") {
            for (const auto &key : ini.keys(section))
                if (key != "kill")
                    util::fatal("plan: unknown key '%s' in [chaos]",
                                key.c_str());
        } else if (section == "netem") {
            static const std::set<std::string> netem_keys{
                "seed", "deadline_ticks", "script"};
            for (const auto &key : ini.keys(section))
                if (!netem_keys.count(key))
                    util::fatal("plan: unknown key '%s' in [netem]",
                                key.c_str());
            // Presence switches the layer on, even with an empty
            // script: the (bit-transparent) transport still wires in,
            // which is handy for A/B-ing the plumbing itself.
            plan.netem = true;
        } else if (section.rfind("node ", 0) == 0) {
            DistPlan::Node node;
            node.name = trim(section.substr(5));
            if (node.name.empty())
                util::fatal("plan: [node] section needs a name");
            for (const auto &key : ini.keys(section))
                if (key != "levels")
                    util::fatal("plan: unknown key '%s' in [node %s]",
                                key.c_str(), node.name.c_str());
            for (const auto &item :
                 splitList(ini.get(section, "levels", "")))
                node.selectors.push_back(parseSelector(item, node.name));
            if (node.selectors.empty())
                util::fatal("plan: [node %s] claims no levels",
                            node.name.c_str());
            for (const auto &prev : plan.nodes)
                if (prev.name == node.name)
                    util::fatal("plan: duplicate [node %s]",
                                node.name.c_str());
            plan.nodes.push_back(std::move(node));
        } else {
            util::fatal("plan: unknown section [%s]", section.c_str());
        }
    }

    plan.transport = ini.get("dist", "transport", plan.transport);
    if (plan.transport != "unix" && plan.transport != "tcp")
        util::fatal("plan: [dist] transport must be unix or tcp, not "
                    "'%s'", plan.transport.c_str());
    plan.socket = ini.get("dist", "socket", plan.socket);
    if (plan.socket.empty())
        util::fatal("plan: [dist] socket is required (a path for unix, "
                    "a port for tcp)");
    plan.timeout_ms = ini.getUnsigned("dist", "timeout_ms", plan.timeout_ms);
    if (plan.timeout_ms == 0)
        util::fatal("plan: [dist] timeout_ms must be positive");
    plan.restart_after =
        ini.getUnsigned("dist", "restart_after", plan.restart_after);
    plan.hb_ms = ini.getUnsigned("dist", "hb_ms", plan.hb_ms);
    plan.peer_timeout_ms =
        ini.getUnsigned("dist", "peer_timeout_ms", plan.peer_timeout_ms);
    if (plan.peer_timeout_ms && plan.peer_timeout_ms >= plan.timeout_ms)
        util::fatal("plan: [dist] peer_timeout_ms (%u) must stay below "
                    "timeout_ms (%u) — per-peer detection is pointless "
                    "once the whole-socket guard has already fired",
                    plan.peer_timeout_ms, plan.timeout_ms);
    plan.reconnect_attempts =
        ini.getUnsigned("dist", "reconnect_attempts", plan.reconnect_attempts);
    plan.reconnect_base_ms =
        ini.getUnsigned("dist", "reconnect_base_ms", plan.reconnect_base_ms);
    plan.reconnect_max_ms =
        ini.getUnsigned("dist", "reconnect_max_ms", plan.reconnect_max_ms);

    plan.scenario = ini.get("run", "scenario", plan.scenario);
    plan.machine = ini.get("run", "machine", plan.machine);
    plan.mix = ini.get("run", "mix", plan.mix);
    plan.budgets = ini.get("run", "budgets", plan.budgets);
    plan.ticks = ini.getUnsigned("run", "ticks", plan.ticks);
    if (plan.ticks == 0)
        util::fatal("plan: [run] ticks must be positive");
    plan.seed = ini.getUnsigned("run", "seed", plan.seed);
    plan.threads = ini.getUnsigned("run", "threads", plan.threads);
    plan.record_stride =
        ini.getUnsigned("run", "record_stride", plan.record_stride);
    if (plan.record_stride == 0)
        util::fatal("plan: [run] record_stride must be at least 1");

    plan.obs_metrics_every =
        ini.getUnsigned("obs", "metrics_every", plan.obs_metrics_every);
    if (plan.obs_metrics && plan.obs_metrics_every == 0)
        util::fatal("plan: [obs] metrics_every must be at least 1");
    plan.obs_http = ini.get("obs", "http", plan.obs_http);
    plan.obs_http_linger_ms =
        ini.getUnsigned("obs", "http_linger_ms", plan.obs_http_linger_ms);
    plan.obs_cascade = ini.getBool("obs", "cascade", plan.obs_cascade);

    plan.netem_seed = ini.getUnsigned("netem", "seed", plan.netem_seed);
    plan.netem_deadline =
        ini.getUnsigned("netem", "deadline_ticks", plan.netem_deadline);
    plan.netem_script = ini.get("netem", "script", plan.netem_script);
    if (plan.netem) {
        // Parse now so a malformed script dies at plan load, and check
        // rank targets against the node table.
        fault::netem::NetemSchedule sched =
            fault::netem::NetemSchedule::parse(plan.netem_script);
        for (const auto &ev : sched.events()) {
            if (ev.by_rank &&
                (ev.rank < 0 ||
                 ev.rank > static_cast<int>(plan.nodes.size())))
                util::fatal("plan: [netem] event '%s' targets rank %d, "
                            "but the plan has ranks 0..%zu",
                            ev.toText().c_str(), ev.rank,
                            plan.nodes.size());
            if (ev.start >= plan.ticks)
                util::fatal("plan: [netem] event '%s' starts at tick "
                            "%zu, past the run's %zu ticks",
                            ev.toText().c_str(), ev.start, plan.ticks);
        }
    }

    checkOverlap(plan);

    for (const auto &item : splitList(ini.get("chaos", "kill", ""))) {
        DistPlan::Kill kill = parseKill(item);
        if (kill.rank < 1 ||
            kill.rank > static_cast<int>(plan.nodes.size()))
            util::fatal("plan: [chaos] kill '%s' names rank %d, but "
                        "the plan has ranks 1..%zu (rank 0, the "
                        "supervisor, cannot be killed)", item.c_str(),
                        kill.rank, plan.nodes.size());
        if (kill.tick == 0 || kill.tick >= plan.ticks)
            util::fatal("plan: [chaos] kill '%s' is outside ticks "
                        "1..%zu", item.c_str(), plan.ticks - 1);
        plan.kills.push_back(kill);
    }

    return plan;
}

DistPlan
loadPlanFile(const std::string &path)
{
    return planFromIni(util::readIniFile(path));
}

} // namespace core
} // namespace nps
