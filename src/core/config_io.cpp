#include "core/config_io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/logging.h"

namespace nps {
namespace core {

namespace {

using util::IniDocument;

std::string
boolStr(bool v)
{
    return v ? "true" : "false";
}

std::string
numStr(double v)
{
    // Prefer the short %g form, but only when it parses back to the
    // exact same double: checkpoint resume embeds the config as INI and
    // rebuilds from it, so every value must round-trip bit-exactly.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%g", v);
    if (std::strtod(buf, nullptr) != v)
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

const std::map<std::string, controllers::DivisionPolicy> &
policyNames()
{
    static const std::map<std::string, controllers::DivisionPolicy> map{
        {"prop", controllers::DivisionPolicy::Proportional},
        {"equal", controllers::DivisionPolicy::Equal},
        {"prio", controllers::DivisionPolicy::Priority},
        {"fifo", controllers::DivisionPolicy::Fifo},
        {"random", controllers::DivisionPolicy::Random},
        {"history", controllers::DivisionPolicy::History},
    };
    return map;
}

controllers::DivisionPolicy
policyFromName(const std::string &name)
{
    auto it = policyNames().find(name);
    if (it == policyNames().end())
        util::fatal("config: unknown policy '%s'", name.c_str());
    return it->second;
}

controllers::ForecastMethod
forecastFromName(const std::string &name)
{
    for (auto m : {controllers::ForecastMethod::LastValue,
                   controllers::ForecastMethod::Ewma,
                   controllers::ForecastMethod::HoltLinear}) {
        if (name == controllers::forecastMethodName(m))
            return m;
    }
    util::fatal("config: unknown forecast method '%s'", name.c_str());
}

/** The complete key schema: section -> allowed keys. */
const std::map<std::string, std::set<std::string>> &
schema()
{
    static const std::map<std::string, std::set<std::string>> s{
        {"deployment",
         {"coordinated", "enable_ec", "enable_sm", "enable_em",
          "enable_gm", "enable_vmc", "enable_cap", "enable_mem",
          "alpha_v", "alpha_m", "cap_limit_frac", "threads",
          "log_control_plane"}},
        {"ec", {"lambda", "r_ref", "period", "objective",
                "quantize_up"}},
        {"sm", {"beta", "r_ref_min", "r_ref_max", "period",
                "unthrottle_margin", "release_gain_ratio",
                "lease_ticks", "lease_fallback"}},
        {"em", {"period", "policy", "demand_horizon",
                "history_horizon", "seed", "lease_ticks",
                "lease_fallback"}},
        {"gm", {"period", "policy", "demand_horizon",
                "history_horizon", "seed", "lease_ticks",
                "lease_fallback"}},
        {"vmc",
         {"period", "allow_power_off", "capacity_target",
          "migration_ticks", "buffer_gain", "gain_ref_period",
          "buffer_decay", "buffer_max", "buffer_init",
          "adoption_margin", "spread_sigma", "use_real_util",
          "use_budget_constraints", "use_violation_feedback",
          "use_forecast", "forecast_method", "forecast_alpha",
          "forecast_beta"}},
        {"cap", {"period", "release_margin"}},
        {"mem", {"period", "engage_below", "release_above",
                 "engage_patience"}},
        {"budgets", {"group_off", "enclosure_off", "local_off"}},
        {"obs", {"metrics", "trace", "trace_filter", "trace_capacity",
                 "profile", "cascade", "http", "http_linger_ms",
                 "publish_every"}},
        {"faults",
         {"enabled", "seed", "script", "horizon", "outages",
          "outage_len", "drops", "drop_len", "drop_prob", "stales",
          "stale_len", "stucks", "stuck_len", "noises", "noise_len",
          "noise_sigma", "freezes", "freeze_len"}},
        {"stream",
         {"enabled", "timeout_ms", "max_pending", "hold_last",
          "hold_ticks", "fallback_util"}},
    };
    return s;
}

void
validateSchema(const IniDocument &ini)
{
    for (const auto &section : ini.sections()) {
        auto it = schema().find(section);
        if (it == schema().end())
            util::fatal("config: unknown section [%s]", section.c_str());
        for (const auto &key : ini.keys(section)) {
            if (!it->second.count(key))
                util::fatal("config: unknown key '%s' in [%s]",
                            key.c_str(), section.c_str());
        }
    }
}

} // namespace

CoordinationConfig
configFromIni(const IniDocument &ini)
{
    validateSchema(ini);
    CoordinationConfig cfg;

    cfg.coordinated = ini.getBool("deployment", "coordinated",
                                  cfg.coordinated);
    cfg.enable_ec = ini.getBool("deployment", "enable_ec",
                                cfg.enable_ec);
    cfg.enable_sm = ini.getBool("deployment", "enable_sm",
                                cfg.enable_sm);
    cfg.enable_em = ini.getBool("deployment", "enable_em",
                                cfg.enable_em);
    cfg.enable_gm = ini.getBool("deployment", "enable_gm",
                                cfg.enable_gm);
    cfg.enable_vmc = ini.getBool("deployment", "enable_vmc",
                                 cfg.enable_vmc);
    cfg.enable_cap = ini.getBool("deployment", "enable_cap",
                                 cfg.enable_cap);
    cfg.enable_mem = ini.getBool("deployment", "enable_mem",
                                 cfg.enable_mem);
    cfg.alpha_v = ini.getDouble("deployment", "alpha_v", cfg.alpha_v);
    cfg.alpha_m = ini.getDouble("deployment", "alpha_m", cfg.alpha_m);
    cfg.cap_limit_frac = ini.getDouble("deployment", "cap_limit_frac",
                                       cfg.cap_limit_frac);
    cfg.threads = ini.getUnsigned("deployment", "threads", cfg.threads);
    cfg.log_control_plane = ini.getBool("deployment",
                                        "log_control_plane",
                                        cfg.log_control_plane);

    cfg.ec.lambda = ini.getDouble("ec", "lambda", cfg.ec.lambda);
    cfg.ec.r_ref = ini.getDouble("ec", "r_ref", cfg.ec.r_ref);
    cfg.ec.period = ini.getUnsigned("ec", "period", cfg.ec.period);
    cfg.ec.quantize_up = ini.getBool("ec", "quantize_up",
                                     cfg.ec.quantize_up);
    std::string objective = ini.get("ec", "objective", "tracking");
    if (objective == "tracking")
        cfg.ec.objective = controllers::EcObjective::UtilizationTracking;
    else if (objective == "energy-delay")
        cfg.ec.objective = controllers::EcObjective::EnergyDelay;
    else
        util::fatal("config: unknown EC objective '%s'",
                    objective.c_str());

    cfg.sm.beta = ini.getDouble("sm", "beta", cfg.sm.beta);
    cfg.sm.r_ref_min = ini.getDouble("sm", "r_ref_min",
                                     cfg.sm.r_ref_min);
    cfg.sm.r_ref_max = ini.getDouble("sm", "r_ref_max",
                                     cfg.sm.r_ref_max);
    cfg.sm.period = ini.getUnsigned("sm", "period", cfg.sm.period);
    cfg.sm.unthrottle_margin = ini.getDouble(
        "sm", "unthrottle_margin", cfg.sm.unthrottle_margin);
    cfg.sm.release_gain_ratio = ini.getDouble(
        "sm", "release_gain_ratio", cfg.sm.release_gain_ratio);
    cfg.sm.lease_ticks =
        ini.getUnsigned("sm", "lease_ticks", cfg.sm.lease_ticks);
    cfg.sm.lease_fallback = ini.getDouble("sm", "lease_fallback",
                                          cfg.sm.lease_fallback);

    cfg.em.period = ini.getUnsigned("em", "period", cfg.em.period);
    if (ini.has("em", "policy"))
        cfg.em.policy = policyFromName(ini.get("em", "policy"));
    cfg.em.demand_horizon = ini.getDouble("em", "demand_horizon",
                                          cfg.em.demand_horizon);
    cfg.em.history_horizon = ini.getDouble("em", "history_horizon",
                                           cfg.em.history_horizon);
    cfg.em.seed = ini.getUnsigned("em", "seed", cfg.em.seed);
    cfg.em.lease_ticks =
        ini.getUnsigned("em", "lease_ticks", cfg.em.lease_ticks);
    cfg.em.lease_fallback = ini.getDouble("em", "lease_fallback",
                                          cfg.em.lease_fallback);

    cfg.gm.period = ini.getUnsigned("gm", "period", cfg.gm.period);
    if (ini.has("gm", "policy"))
        cfg.gm.policy = policyFromName(ini.get("gm", "policy"));
    cfg.gm.demand_horizon = ini.getDouble("gm", "demand_horizon",
                                          cfg.gm.demand_horizon);
    cfg.gm.history_horizon = ini.getDouble("gm", "history_horizon",
                                           cfg.gm.history_horizon);
    cfg.gm.seed = ini.getUnsigned("gm", "seed", cfg.gm.seed);
    cfg.gm.lease_ticks =
        ini.getUnsigned("gm", "lease_ticks", cfg.gm.lease_ticks);
    cfg.gm.lease_fallback = ini.getDouble("gm", "lease_fallback",
                                          cfg.gm.lease_fallback);

    auto &vmc = cfg.vmc;
    vmc.period = ini.getUnsigned("vmc", "period", vmc.period);
    vmc.allow_power_off = ini.getBool("vmc", "allow_power_off",
                                      vmc.allow_power_off);
    vmc.capacity_target = ini.getDouble("vmc", "capacity_target",
                                        vmc.capacity_target);
    vmc.migration_ticks =
        ini.getUnsigned("vmc", "migration_ticks", vmc.migration_ticks);
    vmc.buffer_gain = ini.getDouble("vmc", "buffer_gain",
                                    vmc.buffer_gain);
    vmc.gain_ref_period =
        ini.getUnsigned("vmc", "gain_ref_period", vmc.gain_ref_period);
    vmc.buffer_decay = ini.getDouble("vmc", "buffer_decay",
                                     vmc.buffer_decay);
    vmc.buffer_max = ini.getDouble("vmc", "buffer_max", vmc.buffer_max);
    vmc.buffer_init = ini.getDouble("vmc", "buffer_init",
                                    vmc.buffer_init);
    vmc.adoption_margin = ini.getDouble("vmc", "adoption_margin",
                                        vmc.adoption_margin);
    vmc.spread_sigma = ini.getDouble("vmc", "spread_sigma",
                                     vmc.spread_sigma);
    vmc.use_real_util = ini.getBool("vmc", "use_real_util",
                                    vmc.use_real_util);
    vmc.use_budget_constraints = ini.getBool(
        "vmc", "use_budget_constraints", vmc.use_budget_constraints);
    vmc.use_violation_feedback = ini.getBool(
        "vmc", "use_violation_feedback", vmc.use_violation_feedback);
    vmc.use_forecast = ini.getBool("vmc", "use_forecast",
                                   vmc.use_forecast);
    if (ini.has("vmc", "forecast_method")) {
        vmc.forecast.method = forecastFromName(
            ini.get("vmc", "forecast_method"));
    }
    vmc.forecast.alpha = ini.getDouble("vmc", "forecast_alpha",
                                       vmc.forecast.alpha);
    vmc.forecast.beta = ini.getDouble("vmc", "forecast_beta",
                                      vmc.forecast.beta);

    cfg.cap.period = ini.getUnsigned("cap", "period", cfg.cap.period);
    cfg.cap.release_margin = ini.getDouble("cap", "release_margin",
                                           cfg.cap.release_margin);

    cfg.mem.period = ini.getUnsigned("mem", "period", cfg.mem.period);
    cfg.mem.engage_below = ini.getDouble("mem", "engage_below",
                                         cfg.mem.engage_below);
    cfg.mem.release_above = ini.getDouble("mem", "release_above",
                                          cfg.mem.release_above);
    cfg.mem.engage_patience =
        ini.getUnsigned("mem", "engage_patience", cfg.mem.engage_patience);

    cfg.budgets.grp_off_frac = ini.getDouble(
        "budgets", "group_off", cfg.budgets.grp_off_frac);
    cfg.budgets.enc_off_frac = ini.getDouble(
        "budgets", "enclosure_off", cfg.budgets.enc_off_frac);
    cfg.budgets.loc_off_frac = ini.getDouble(
        "budgets", "local_off", cfg.budgets.loc_off_frac);

    auto &ob = cfg.observability;
    ob.metrics = ini.getBool("obs", "metrics", ob.metrics);
    ob.trace = ini.getBool("obs", "trace", ob.trace);
    ob.trace_filter = ini.get("obs", "trace_filter", ob.trace_filter);
    ob.trace_capacity =
        ini.getUnsigned("obs", "trace_capacity", ob.trace_capacity);
    ob.profile = ini.getBool("obs", "profile", ob.profile);
    ob.cascade = ini.getBool("obs", "cascade", ob.cascade);
    ob.http = ini.get("obs", "http", ob.http);
    ob.http_linger_ms =
        ini.getUnsigned("obs", "http_linger_ms", ob.http_linger_ms);
    ob.publish_every =
        ini.getUnsigned("obs", "publish_every", ob.publish_every);
    if (ob.publish_every == 0)
        util::fatal("config: [obs] publish_every must be at least 1");
    if (!ob.http.empty() && !ob.metrics)
        util::fatal("config: [obs] http needs metrics = true — there "
                    "is no registry to serve without it");

    auto &fl = cfg.faults;
    fl.enabled = ini.getBool("faults", "enabled", fl.enabled);
    fl.seed = ini.getUnsigned("faults", "seed", fl.seed);
    fl.script = ini.get("faults", "script", fl.script);
    if (!fl.script.empty()) {
        // Validate eagerly so a typo dies at load, not mid-run.
        fault::FaultSchedule::parse(fl.script);
    }
    auto &rnd = fl.random;
    rnd.horizon = ini.getUnsigned("faults", "horizon", rnd.horizon);
    rnd.outages = ini.getUnsigned("faults", "outages", rnd.outages);
    rnd.outage_len = ini.getUnsigned("faults", "outage_len", rnd.outage_len);
    rnd.drops = ini.getUnsigned("faults", "drops", rnd.drops);
    rnd.drop_len = ini.getUnsigned("faults", "drop_len", rnd.drop_len);
    rnd.drop_prob = ini.getDouble("faults", "drop_prob", rnd.drop_prob);
    rnd.stales = ini.getUnsigned("faults", "stales", rnd.stales);
    rnd.stale_len = ini.getUnsigned("faults", "stale_len", rnd.stale_len);
    rnd.stucks = ini.getUnsigned("faults", "stucks", rnd.stucks);
    rnd.stuck_len = ini.getUnsigned("faults", "stuck_len", rnd.stuck_len);
    rnd.noises = ini.getUnsigned("faults", "noises", rnd.noises);
    rnd.noise_len = ini.getUnsigned("faults", "noise_len", rnd.noise_len);
    rnd.noise_sigma = ini.getDouble("faults", "noise_sigma",
                                    rnd.noise_sigma);
    rnd.freezes = ini.getUnsigned("faults", "freezes", rnd.freezes);
    rnd.freeze_len = ini.getUnsigned("faults", "freeze_len", rnd.freeze_len);

    auto &st = cfg.stream;
    st.enabled = ini.getBool("stream", "enabled", st.enabled);
    st.timeout_ms = ini.getUnsigned("stream", "timeout_ms", st.timeout_ms);
    st.max_pending = ini.getUnsigned("stream", "max_pending", st.max_pending);
    st.hold_last = ini.getBool("stream", "hold_last", st.hold_last);
    st.hold_ticks = ini.getUnsigned("stream", "hold_ticks", st.hold_ticks);
    st.fallback_util = ini.getDouble("stream", "fallback_util",
                                     st.fallback_util);
    if (st.max_pending == 0)
        util::fatal("config: [stream] max_pending must be at least 1");
    if (st.fallback_util < 0.0)
        util::fatal("config: [stream] fallback_util must not be negative");

    return cfg;
}

CoordinationConfig
loadConfigFile(const std::string &path)
{
    return configFromIni(util::readIniFile(path));
}

sim::Topology
topologyFromIni(const IniDocument &ini)
{
    static const std::set<std::string> keys{
        "servers", "enclosures", "enclosure_size", "tree"};
    for (const auto &section : ini.sections()) {
        if (section != "topology")
            util::fatal("topology: unknown section [%s]",
                        section.c_str());
        for (const auto &key : ini.keys(section)) {
            if (!keys.count(key))
                util::fatal("topology: unknown key '%s' in [topology]",
                            key.c_str());
        }
    }

    sim::Topology topo;
    topo.num_servers =
        ini.getUnsigned("topology", "servers", topo.num_servers);
    topo.num_enclosures =
        ini.getUnsigned("topology", "enclosures", topo.num_enclosures);
    topo.enclosure_size =
        ini.getUnsigned("topology", "enclosure_size", topo.enclosure_size);
    topo.tree = sim::Topology::parseTree(
        ini.get("topology", "tree", ""));
    topo.validate();
    return topo;
}

sim::Topology
loadTopologyFile(const std::string &path)
{
    return topologyFromIni(util::readIniFile(path));
}

util::IniDocument
topologyToIni(const sim::Topology &topo)
{
    IniDocument ini;
    ini.set("topology", "servers", std::to_string(topo.num_servers));
    ini.set("topology", "enclosures",
            std::to_string(topo.num_enclosures));
    ini.set("topology", "enclosure_size",
            std::to_string(topo.enclosure_size));
    if (topo.hasTree())
        ini.set("topology", "tree", topo.treeText());
    return ini;
}

util::IniDocument
configToIni(const CoordinationConfig &cfg)
{
    IniDocument ini;
    ini.set("deployment", "coordinated", boolStr(cfg.coordinated));
    ini.set("deployment", "enable_ec", boolStr(cfg.enable_ec));
    ini.set("deployment", "enable_sm", boolStr(cfg.enable_sm));
    ini.set("deployment", "enable_em", boolStr(cfg.enable_em));
    ini.set("deployment", "enable_gm", boolStr(cfg.enable_gm));
    ini.set("deployment", "enable_vmc", boolStr(cfg.enable_vmc));
    ini.set("deployment", "enable_cap", boolStr(cfg.enable_cap));
    ini.set("deployment", "enable_mem", boolStr(cfg.enable_mem));
    ini.set("deployment", "alpha_v", numStr(cfg.alpha_v));
    ini.set("deployment", "alpha_m", numStr(cfg.alpha_m));
    ini.set("deployment", "cap_limit_frac", numStr(cfg.cap_limit_frac));
    ini.set("deployment", "threads", std::to_string(cfg.threads));
    ini.set("deployment", "log_control_plane",
            boolStr(cfg.log_control_plane));

    ini.set("ec", "lambda", numStr(cfg.ec.lambda));
    ini.set("ec", "r_ref", numStr(cfg.ec.r_ref));
    ini.set("ec", "period", std::to_string(cfg.ec.period));
    ini.set("ec", "objective",
            cfg.ec.objective ==
                    controllers::EcObjective::UtilizationTracking
                ? "tracking"
                : "energy-delay");
    ini.set("ec", "quantize_up", boolStr(cfg.ec.quantize_up));

    ini.set("sm", "beta", numStr(cfg.sm.beta));
    ini.set("sm", "r_ref_min", numStr(cfg.sm.r_ref_min));
    ini.set("sm", "r_ref_max", numStr(cfg.sm.r_ref_max));
    ini.set("sm", "period", std::to_string(cfg.sm.period));
    ini.set("sm", "unthrottle_margin",
            numStr(cfg.sm.unthrottle_margin));
    ini.set("sm", "release_gain_ratio",
            numStr(cfg.sm.release_gain_ratio));
    ini.set("sm", "lease_ticks", std::to_string(cfg.sm.lease_ticks));
    ini.set("sm", "lease_fallback", numStr(cfg.sm.lease_fallback));

    ini.set("em", "period", std::to_string(cfg.em.period));
    ini.set("em", "policy", controllers::policyName(cfg.em.policy));
    ini.set("em", "demand_horizon", numStr(cfg.em.demand_horizon));
    ini.set("em", "history_horizon", numStr(cfg.em.history_horizon));
    ini.set("em", "seed", std::to_string(cfg.em.seed));
    ini.set("em", "lease_ticks", std::to_string(cfg.em.lease_ticks));
    ini.set("em", "lease_fallback", numStr(cfg.em.lease_fallback));

    ini.set("gm", "period", std::to_string(cfg.gm.period));
    ini.set("gm", "policy", controllers::policyName(cfg.gm.policy));
    ini.set("gm", "demand_horizon", numStr(cfg.gm.demand_horizon));
    ini.set("gm", "history_horizon", numStr(cfg.gm.history_horizon));
    ini.set("gm", "seed", std::to_string(cfg.gm.seed));
    ini.set("gm", "lease_ticks", std::to_string(cfg.gm.lease_ticks));
    ini.set("gm", "lease_fallback", numStr(cfg.gm.lease_fallback));

    const auto &vmc = cfg.vmc;
    ini.set("vmc", "period", std::to_string(vmc.period));
    ini.set("vmc", "allow_power_off", boolStr(vmc.allow_power_off));
    ini.set("vmc", "capacity_target", numStr(vmc.capacity_target));
    ini.set("vmc", "migration_ticks",
            std::to_string(vmc.migration_ticks));
    ini.set("vmc", "buffer_gain", numStr(vmc.buffer_gain));
    ini.set("vmc", "gain_ref_period",
            std::to_string(vmc.gain_ref_period));
    ini.set("vmc", "buffer_decay", numStr(vmc.buffer_decay));
    ini.set("vmc", "buffer_max", numStr(vmc.buffer_max));
    ini.set("vmc", "buffer_init", numStr(vmc.buffer_init));
    ini.set("vmc", "adoption_margin", numStr(vmc.adoption_margin));
    ini.set("vmc", "spread_sigma", numStr(vmc.spread_sigma));
    ini.set("vmc", "use_real_util", boolStr(vmc.use_real_util));
    ini.set("vmc", "use_budget_constraints",
            boolStr(vmc.use_budget_constraints));
    ini.set("vmc", "use_violation_feedback",
            boolStr(vmc.use_violation_feedback));
    ini.set("vmc", "use_forecast", boolStr(vmc.use_forecast));
    ini.set("vmc", "forecast_method",
            controllers::forecastMethodName(vmc.forecast.method));
    ini.set("vmc", "forecast_alpha", numStr(vmc.forecast.alpha));
    ini.set("vmc", "forecast_beta", numStr(vmc.forecast.beta));

    ini.set("cap", "period", std::to_string(cfg.cap.period));
    ini.set("cap", "release_margin", numStr(cfg.cap.release_margin));

    ini.set("mem", "period", std::to_string(cfg.mem.period));
    ini.set("mem", "engage_below", numStr(cfg.mem.engage_below));
    ini.set("mem", "release_above", numStr(cfg.mem.release_above));
    ini.set("mem", "engage_patience",
            std::to_string(cfg.mem.engage_patience));

    ini.set("budgets", "group_off", numStr(cfg.budgets.grp_off_frac));
    ini.set("budgets", "enclosure_off",
            numStr(cfg.budgets.enc_off_frac));
    ini.set("budgets", "local_off", numStr(cfg.budgets.loc_off_frac));

    const auto &ob = cfg.observability;
    ini.set("obs", "metrics", boolStr(ob.metrics));
    ini.set("obs", "trace", boolStr(ob.trace));
    if (!ob.trace_filter.empty())
        ini.set("obs", "trace_filter", ob.trace_filter);
    ini.set("obs", "trace_capacity", std::to_string(ob.trace_capacity));
    ini.set("obs", "profile", boolStr(ob.profile));
    ini.set("obs", "cascade", boolStr(ob.cascade));
    if (!ob.http.empty())
        ini.set("obs", "http", ob.http);
    ini.set("obs", "http_linger_ms", std::to_string(ob.http_linger_ms));
    ini.set("obs", "publish_every", std::to_string(ob.publish_every));

    const auto &fl = cfg.faults;
    ini.set("faults", "enabled", boolStr(fl.enabled));
    ini.set("faults", "seed", std::to_string(fl.seed));
    if (!fl.script.empty()) {
        // Re-render through the parser so the stored form is one line of
        // '; '-separated clauses (INI values cannot span lines).
        ini.set("faults", "script",
                fault::FaultSchedule::parse(fl.script).toText("; "));
    }
    const auto &rnd = fl.random;
    ini.set("faults", "horizon", std::to_string(rnd.horizon));
    ini.set("faults", "outages", std::to_string(rnd.outages));
    ini.set("faults", "outage_len", std::to_string(rnd.outage_len));
    ini.set("faults", "drops", std::to_string(rnd.drops));
    ini.set("faults", "drop_len", std::to_string(rnd.drop_len));
    ini.set("faults", "drop_prob", numStr(rnd.drop_prob));
    ini.set("faults", "stales", std::to_string(rnd.stales));
    ini.set("faults", "stale_len", std::to_string(rnd.stale_len));
    ini.set("faults", "stucks", std::to_string(rnd.stucks));
    ini.set("faults", "stuck_len", std::to_string(rnd.stuck_len));
    ini.set("faults", "noises", std::to_string(rnd.noises));
    ini.set("faults", "noise_len", std::to_string(rnd.noise_len));
    ini.set("faults", "noise_sigma", numStr(rnd.noise_sigma));
    ini.set("faults", "freezes", std::to_string(rnd.freezes));
    ini.set("faults", "freeze_len", std::to_string(rnd.freeze_len));

    const auto &st = cfg.stream;
    ini.set("stream", "enabled", boolStr(st.enabled));
    ini.set("stream", "timeout_ms", std::to_string(st.timeout_ms));
    ini.set("stream", "max_pending", std::to_string(st.max_pending));
    ini.set("stream", "hold_last", boolStr(st.hold_last));
    ini.set("stream", "hold_ticks", std::to_string(st.hold_ticks));
    ini.set("stream", "fallback_util", numStr(st.fallback_util));
    return ini;
}

} // namespace core
} // namespace nps
