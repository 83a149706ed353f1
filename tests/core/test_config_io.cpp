/**
 * @file
 * Tests for the INI configuration binding: defaults, overrides, strict
 * schema validation, and write/load round trips.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "core/config_io.h"
#include "core/scenarios.h"

namespace {

using namespace nps;
using namespace nps::core;

TEST(ConfigIo, EmptyDocumentYieldsDefaults)
{
    auto cfg = configFromIni(util::parseIni(""));
    CoordinationConfig dflt;
    EXPECT_EQ(cfg.coordinated, dflt.coordinated);
    EXPECT_EQ(cfg.ec.period, dflt.ec.period);
    EXPECT_DOUBLE_EQ(cfg.ec.lambda, dflt.ec.lambda);
    EXPECT_DOUBLE_EQ(cfg.budgets.grp_off_frac,
                     dflt.budgets.grp_off_frac);
}

TEST(ConfigIo, OverridesApply)
{
    auto cfg = configFromIni(util::parseIni(
        "[deployment]\n"
        "coordinated = false\n"
        "enable_cap = true\n"
        "alpha_m = 0.2\n"
        "[ec]\n"
        "lambda = 0.5\n"
        "objective = energy-delay\n"
        "[vmc]\n"
        "period = 250\n"
        "use_forecast = true\n"
        "forecast_method = holt\n"
        "[budgets]\n"
        "group_off = 0.30\n"));
    EXPECT_FALSE(cfg.coordinated);
    EXPECT_TRUE(cfg.enable_cap);
    EXPECT_DOUBLE_EQ(cfg.alpha_m, 0.2);
    EXPECT_DOUBLE_EQ(cfg.ec.lambda, 0.5);
    EXPECT_EQ(cfg.ec.objective, controllers::EcObjective::EnergyDelay);
    EXPECT_EQ(cfg.vmc.period, 250u);
    EXPECT_TRUE(cfg.vmc.use_forecast);
    EXPECT_EQ(cfg.vmc.forecast.method,
              controllers::ForecastMethod::HoltLinear);
    EXPECT_DOUBLE_EQ(cfg.budgets.grp_off_frac, 0.30);
    // Untouched knobs keep defaults.
    EXPECT_DOUBLE_EQ(cfg.budgets.loc_off_frac, 0.10);
}

TEST(ConfigIo, PolicyNames)
{
    auto cfg = configFromIni(util::parseIni(
        "[em]\npolicy = equal\n[gm]\npolicy = history\n"));
    EXPECT_EQ(cfg.em.policy, controllers::DivisionPolicy::Equal);
    EXPECT_EQ(cfg.gm.policy, controllers::DivisionPolicy::History);
}

TEST(ConfigIo, UnknownSectionDies)
{
    EXPECT_DEATH(configFromIni(util::parseIni("[typo]\nx = 1\n")),
                 "unknown section");
}

TEST(ConfigIo, UnknownKeyDies)
{
    EXPECT_DEATH(configFromIni(util::parseIni("[ec]\nlamda = 0.8\n")),
                 "unknown key");
}

TEST(ConfigIo, BadEnumsDie)
{
    EXPECT_DEATH(configFromIni(util::parseIni(
                     "[em]\npolicy = roundrobin\n")),
                 "unknown policy");
    EXPECT_DEATH(configFromIni(util::parseIni(
                     "[ec]\nobjective = yolo\n")),
                 "unknown EC objective");
    EXPECT_DEATH(configFromIni(util::parseIni(
                     "[vmc]\nforecast_method = crystal\n")),
                 "unknown forecast method");
}

TEST(ConfigIo, RoundTripPreservesEverything)
{
    auto original = uncoordinatedConfig();
    original.enable_mem = true;
    original.ec.lambda = 0.61;
    original.sm.beta = 1.7;
    original.em.policy = controllers::DivisionPolicy::Fifo;
    original.vmc.capacity_target = 0.77;
    original.vmc.use_forecast = true;
    original.budgets = sim::BudgetConfig::paper252015();

    auto back = configFromIni(configToIni(original));
    EXPECT_EQ(back.coordinated, original.coordinated);
    EXPECT_EQ(back.enable_mem, original.enable_mem);
    EXPECT_DOUBLE_EQ(back.ec.lambda, original.ec.lambda);
    EXPECT_DOUBLE_EQ(back.sm.beta, original.sm.beta);
    EXPECT_EQ(back.em.policy, original.em.policy);
    EXPECT_DOUBLE_EQ(back.vmc.capacity_target,
                     original.vmc.capacity_target);
    EXPECT_EQ(back.vmc.use_forecast, original.vmc.use_forecast);
    EXPECT_EQ(back.budgets.label(), original.budgets.label());
}

TEST(ConfigIo, DumpedDefaultsValidateAgainstSchema)
{
    // Everything configToIni writes must be loadable (schema closed
    // under dump).
    auto cfg = configFromIni(configToIni(CoordinationConfig{}));
    EXPECT_EQ(cfg.ec.period, 1u);
}

TEST(ConfigIo, LoadFromFile)
{
    std::string path = ::testing::TempDir() + "/nps_cfg.ini";
    {
        std::ofstream out(path);
        out << "[deployment]\ncoordinated = false\n";
    }
    auto cfg = loadConfigFile(path);
    EXPECT_FALSE(cfg.coordinated);
}

TEST(ConfigIo, TypoedKeyInRecognizedSectionDiesNamingBoth)
{
    // A typo inside a *known* section must not fall back to the default
    // silently, and the error has to name both the key and the section.
    EXPECT_DEATH(configFromIni(util::parseIni("[sm]\nlease_tiks = 12\n")),
                 "unknown key 'lease_tiks' in \\[sm\\]");
    EXPECT_DEATH(configFromIni(util::parseIni("[gm]\nperiodd = 60\n")),
                 "unknown key 'periodd' in \\[gm\\]");
}

TEST(ConfigIo, NegativeAndNonFiniteNumbersDie)
{
    // Each of these once parsed: the unsigned ones wrapped (threads = -1
    // became 4294967295) and the double stayed NaN.
    auto load = [](const char *text) {
        configFromIni(util::parseIni(text));
    };
    EXPECT_DEATH(load("[deployment]\nthreads = -1\n"),
                 "\\[deployment\\] threads = '-1' is not an unsigned");
    EXPECT_DEATH(load("[ec]\nperiod = -3\n"),
                 "\\[ec\\] period = '-3' is not an unsigned");
    EXPECT_DEATH(load("[stream]\ntimeout_ms = -1\n"),
                 "\\[stream\\] timeout_ms = '-1' is not an unsigned");
    EXPECT_DEATH(load("[faults]\nseed = -1\n"),
                 "\\[faults\\] seed = '-1' is not an unsigned");
    EXPECT_DEATH(load("[ec]\nlambda = nan\n"),
                 "\\[ec\\] lambda = 'nan' is not a number, or not finite");
    EXPECT_DEATH(load("[deployment]\nthreads = 4294967296\n"),
                 "up to 4294967295");
    EXPECT_DEATH(topologyFromIni(util::parseIni(
                     "[topology]\nservers = -6\n")),
                 "servers = '-6' is not an unsigned");
}

TEST(ConfigIo, NegativeFallbackUtilDies)
{
    // Staged as demand, a negative fallback would abort the plant on
    // the first silent tick instead of at load.
    EXPECT_DEATH(configFromIni(util::parseIni(
                     "[stream]\nfallback_util = -0.5\n")),
                 "fallback_util must not be negative");
    auto cfg = configFromIni(util::parseIni("[stream]\nfallback_util = 0\n"));
    EXPECT_EQ(cfg.stream.fallback_util, 0.0);
}

TEST(ConfigIo, NumbersRoundTripBitExactly)
{
    // Checkpoint resume rebuilds the simulation from configToIni text,
    // so every double must round-trip to the identical bit pattern —
    // including values %g's 6 significant digits cannot represent.
    CoordinationConfig original;
    original.ec.lambda = 0.1 + 0.2; // 0.30000000000000004
    original.sm.beta = 1.0 / 3.0;
    original.vmc.capacity_target = 0.7000000000000001;

    auto back = configFromIni(configToIni(original));
    EXPECT_EQ(back.ec.lambda, original.ec.lambda);
    EXPECT_EQ(back.sm.beta, original.sm.beta);
    EXPECT_EQ(back.vmc.capacity_target, original.vmc.capacity_target);
}

} // namespace
