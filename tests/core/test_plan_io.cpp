/**
 * @file
 * Tests for the distributed-run plan loader (docs/DISTRIBUTED.md):
 * defaults, the full grammar, rank assignment through ownerOf/ownerFn,
 * and the strict-validation contract — unknown sections and keys,
 * levels that cannot be distributed, overlapping claims and
 * out-of-range kills must all die at parse time, before any process
 * is spawned.
 */

#include <gtest/gtest.h>

#include "core/dist_plan.h"
#include "util/ini.h"

namespace {

using namespace nps;
using namespace nps::core;
using bus::OwnerLevel;

DistPlan
parse(const std::string &text)
{
    return planFromIni(util::parseIni(text));
}

const char *kMinimal = "[dist]\nsocket = /tmp/t.sock\n";

TEST(PlanIo, MinimalPlanYieldsDefaults)
{
    DistPlan p = parse(kMinimal);
    EXPECT_EQ(p.transport, "unix");
    EXPECT_EQ(p.socket, "/tmp/t.sock");
    EXPECT_EQ(p.endpoint(), "unix:/tmp/t.sock");
    EXPECT_EQ(p.timeout_ms, 30000u);
    EXPECT_EQ(p.restart_after, 0u);
    EXPECT_EQ(p.scenario, "coordinated");
    EXPECT_EQ(p.machine, "BladeA");
    EXPECT_EQ(p.mix, "180");
    EXPECT_EQ(p.budgets, "20-15-10");
    EXPECT_EQ(p.ticks, 2880u);
    EXPECT_EQ(p.seed, 20080301u);
    EXPECT_EQ(p.threads, 0u);
    EXPECT_EQ(p.record_stride, 1u);
    EXPECT_TRUE(p.nodes.empty());
    EXPECT_TRUE(p.kills.empty());
}

TEST(PlanIo, FullGrammarParses)
{
    DistPlan p = parse(
        "[dist]\n"
        "transport = tcp\n"
        "socket = 9190\n"
        "timeout_ms = 5000\n"
        "restart_after = 40\n"
        "[run]\n"
        "scenario = baseline\n"
        "machine = BladeA\n"
        "mix = 60M\n"
        "budgets = 25-20-15\n"
        "ticks = 480\n"
        "seed = 7\n"
        "threads = 4\n"
        "record_stride = 2\n"
        "[node group]\n"
        "levels = gm:*\n"
        "[node enclosures]\n"
        "levels = em:0, em:1, vmc\n"
        "[chaos]\n"
        "kill = 1@120, 2@240\n");
    EXPECT_EQ(p.transport, "tcp");
    EXPECT_EQ(p.endpoint(), "tcp:9190");
    EXPECT_EQ(p.timeout_ms, 5000u);
    EXPECT_EQ(p.restart_after, 40u);
    EXPECT_EQ(p.scenario, "baseline");
    EXPECT_EQ(p.mix, "60M");
    EXPECT_EQ(p.ticks, 480u);
    EXPECT_EQ(p.threads, 4u);
    EXPECT_EQ(p.record_stride, 2u);

    ASSERT_EQ(p.nodes.size(), 2u);
    EXPECT_EQ(p.nodes[0].name, "group");
    ASSERT_EQ(p.nodes[0].selectors.size(), 1u);
    EXPECT_EQ(p.nodes[0].selectors[0].level, OwnerLevel::Gm);
    EXPECT_TRUE(p.nodes[0].selectors[0].all);
    EXPECT_EQ(p.nodes[1].name, "enclosures");
    ASSERT_EQ(p.nodes[1].selectors.size(), 3u);
    EXPECT_EQ(p.nodes[1].selectors[0].level, OwnerLevel::Em);
    EXPECT_FALSE(p.nodes[1].selectors[0].all);
    EXPECT_EQ(p.nodes[1].selectors[0].id, 0);
    EXPECT_EQ(p.nodes[1].selectors[1].id, 1);
    EXPECT_EQ(p.nodes[1].selectors[2].level, OwnerLevel::Vmc);
    EXPECT_TRUE(p.nodes[1].selectors[2].all); // bare 'vmc' means all

    ASSERT_EQ(p.kills.size(), 2u);
    EXPECT_EQ(p.kills[0].rank, 1);
    EXPECT_EQ(p.kills[0].tick, 120u);
    EXPECT_EQ(p.kills[1].rank, 2);
    EXPECT_EQ(p.kills[1].tick, 240u);
}

TEST(PlanIo, OwnerMapsClaimsToRanksInFileOrder)
{
    DistPlan p = parse(
        "[dist]\nsocket = /tmp/t.sock\n"
        "[node a]\nlevels = gm:*\n"
        "[node b]\nlevels = em:1, vmc\n");
    // Ranks are 1-based node indexes; everything unclaimed stays on
    // the supervisor (rank 0).
    EXPECT_EQ(p.ownerOf(OwnerLevel::Gm, 0), 1);
    EXPECT_EQ(p.ownerOf(OwnerLevel::Gm, 7), 1); // '*' covers every id
    EXPECT_EQ(p.ownerOf(OwnerLevel::Em, 1), 2);
    EXPECT_EQ(p.ownerOf(OwnerLevel::Em, 0), 0); // unclaimed instance
    EXPECT_EQ(p.ownerOf(OwnerLevel::Vmc, 0), 2);
    EXPECT_EQ(p.ownerOf(OwnerLevel::Sm, 3), 0);
    EXPECT_EQ(p.ownerOf(OwnerLevel::Cap, 0), 0);
}

TEST(PlanIo, OwnerFnOutlivesThePlan)
{
    bus::OwnerFn fn;
    {
        DistPlan p = parse(
            "[dist]\nsocket = /tmp/t.sock\n"
            "[node a]\nlevels = gm:*\n");
        fn = p.ownerFn();
    } // the closure copies the node table
    EXPECT_EQ(fn(OwnerLevel::Gm, 2), 1);
    EXPECT_EQ(fn(OwnerLevel::Em, 0), 0);
}

TEST(PlanIo, UnknownSectionDies)
{
    EXPECT_DEATH(parse("[dsit]\nsocket = x\n"), "unknown section");
}

TEST(PlanIo, UnknownKeysDie)
{
    EXPECT_DEATH(parse("[dist]\nsocket = x\nsokcet = y\n"),
                 "unknown key 'sokcet' in \\[dist\\]");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[run]\ntick = 5\n"),
                 "unknown key 'tick' in \\[run\\]");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[node a]\nlevel = gm\n"),
                 "unknown key 'level' in \\[node a\\]");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[chaos]\nkil = 1@5\n"),
                 "unknown key 'kil' in \\[chaos\\]");
}

TEST(PlanIo, MissingSocketDies)
{
    EXPECT_DEATH(parse("[run]\nticks = 10\n"), "socket is required");
}

TEST(PlanIo, BadTransportDies)
{
    EXPECT_DEATH(parse("[dist]\ntransport = pigeon\nsocket = x\n"),
                 "transport must be unix or tcp");
}

TEST(PlanIo, ShardedLevelsCannotBeDistributed)
{
    // sm/ec/cap/mem run sharded across worker threads and must stay on
    // the supervisor; claiming one is a plan error with its own
    // message, distinct from a typo'd level name.
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[node a]\nlevels = sm:1\n"),
                 "sharded across");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[node a]\nlevels = ec:*\n"),
                 "sharded across");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[node a]\nlevels = gmm\n"),
                 "unknown level");
}

TEST(PlanIo, OverlappingClaimsDie)
{
    EXPECT_DEATH(parse("[dist]\nsocket = x\n"
                       "[node a]\nlevels = gm:0\n"
                       "[node b]\nlevels = gm:*\n"),
                 "overlaps an earlier claim");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n"
                       "[node a]\nlevels = em:*\n"
                       "[node b]\nlevels = em:3\n"),
                 "overlaps an earlier claim");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n"
                       "[node a]\nlevels = vmc, vmc\n"),
                 "overlaps an earlier claim");
}

TEST(PlanIo, NodeValidationDies)
{
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[node a]\nlevels =\n"),
                 "claims no levels");
}

TEST(PlanIo, RepeatedNodeSectionsMergeWithLastValueWinning)
{
    // INI semantics: re-opening a section merges it, and a repeated key
    // takes the last value — so a repeated [node a] is one node, not a
    // plan error (the duplicate-name fatal guards programmatic
    // construction paths).
    DistPlan p = parse("[dist]\nsocket = x\n"
                       "[node a]\nlevels = gm:*\n"
                       "[node a]\nlevels = em:*\n");
    ASSERT_EQ(p.nodes.size(), 1u);
    ASSERT_EQ(p.nodes[0].selectors.size(), 1u);
    EXPECT_EQ(p.nodes[0].selectors[0].level, OwnerLevel::Em);
}

TEST(PlanIo, BadKillsDie)
{
    const char *base = "[dist]\nsocket = x\n[run]\nticks = 100\n"
                       "[node a]\nlevels = gm:*\n[chaos]\n";
    EXPECT_DEATH(parse(std::string(base) + "kill = 1-5\n"),
                 "want RANK@TICK");
    EXPECT_DEATH(parse(std::string(base) + "kill = 2@50\n"),
                 "the plan has ranks 1..1");
    EXPECT_DEATH(parse(std::string(base) + "kill = 0@50\n"),
                 "cannot be killed");
    EXPECT_DEATH(parse(std::string(base) + "kill = 1@100\n"),
                 "outside ticks 1..99");
    EXPECT_DEATH(parse(std::string(base) + "kill = 1@0\n"),
                 "outside ticks");
}

TEST(PlanIo, BadScalarsDie)
{
    EXPECT_DEATH(parse("[dist]\nsocket = x\ntimeout_ms = 0\n"),
                 "timeout_ms must be positive");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[run]\nticks = 0\n"),
                 "ticks must be positive");
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[run]\nrecord_stride = 0\n"),
                 "record_stride must be at least 1");
    // Negative values once wrapped into huge unsigned ones.
    EXPECT_DEATH(parse("[dist]\nsocket = x\n[run]\nthreads = -1\n"),
                 "threads = '-1' is not an unsigned integer");
    EXPECT_DEATH(parse("[dist]\nsocket = x\ntimeout_ms = -1\n"),
                 "timeout_ms = '-1' is not an unsigned integer");
}

} // namespace
