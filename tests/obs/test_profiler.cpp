/**
 * @file
 * Tests for the engine profiler: schedule lifecycle, per-actor and
 * per-phase accumulation, and the two output formats.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/profiler.h"

namespace {

using namespace nps::obs;

std::vector<EngineProfiler::ActorInfo>
schedule()
{
    EngineProfiler::ActorInfo gm;
    gm.name = "GM/group";
    EngineProfiler::ActorInfo sm;
    sm.name = "SM/fleet";
    sm.kernel = true;
    return {gm, sm};
}

TEST(Profiler, AccumulatesPerActor)
{
    EngineProfiler prof;
    prof.setSchedule(schedule(), 4);
    EXPECT_EQ(prof.threads(), 4u);
    ASSERT_EQ(prof.actorStats().size(), 2u);

    prof.addObserve(0, 100, 0);
    prof.addObserve(0, 50, 1);
    prof.addStep(1, 25, 2);

    const auto &gm = prof.actorStats()[0];
    EXPECT_EQ(gm.info.name, "GM/group");
    EXPECT_FALSE(gm.info.kernel);
    EXPECT_EQ(gm.observe_calls, 2u);
    EXPECT_EQ(gm.observe_ns, 150u);
    EXPECT_EQ(gm.step_calls, 0u);
    EXPECT_EQ(gm.slot, 1u);

    const auto &sm = prof.actorStats()[1];
    EXPECT_TRUE(sm.info.kernel);
    EXPECT_EQ(sm.step_calls, 1u);
    EXPECT_EQ(sm.step_ns, 25u);
    EXPECT_EQ(sm.slot, 2u);
}

TEST(Profiler, ReannouncingSameScheduleKeepsTimings)
{
    EngineProfiler prof;
    prof.setSchedule(schedule(), 1);
    prof.addStep(0, 10, 0);
    prof.addRun(5, 1000);

    // The engine re-plans (e.g. thread count change) over the same
    // actors: accumulators must survive.
    prof.setSchedule(schedule(), 8);
    EXPECT_EQ(prof.threads(), 8u);
    EXPECT_EQ(prof.actorStats()[0].step_calls, 1u);
    EXPECT_EQ(prof.ticks(), 5u);
}

TEST(Profiler, ScheduleChangeResetsTimings)
{
    EngineProfiler prof;
    prof.setSchedule(schedule(), 1);
    prof.addStep(0, 10, 0);
    prof.addPhase(EnginePhase::Evaluate, 7);
    prof.addRun(5, 1000);

    auto changed = schedule();
    changed.pop_back();
    prof.setSchedule(changed, 1);
    ASSERT_EQ(prof.actorStats().size(), 1u);
    EXPECT_EQ(prof.actorStats()[0].step_calls, 0u);
    EXPECT_EQ(prof.phaseNs(EnginePhase::Evaluate), 0u);
    EXPECT_EQ(prof.ticks(), 0u);
    EXPECT_EQ(prof.wallNs(), 0u);
}

TEST(Profiler, KindChangeResetsTimings)
{
    // Same names, but an actor changed kind: a different schedule.
    EngineProfiler prof;
    prof.setSchedule(schedule(), 1);
    prof.addStep(1, 10, 0);
    auto changed = schedule();
    changed[1].kernel = false;
    prof.setSchedule(changed, 1);
    EXPECT_FALSE(prof.actorStats()[1].info.kernel);
    EXPECT_EQ(prof.actorStats()[1].step_calls, 0u);
}

TEST(Profiler, PhasesAndRunTotalsAccumulate)
{
    EngineProfiler prof;
    prof.setSchedule(schedule(), 2);
    prof.addPhase(EnginePhase::Evaluate, 10);
    prof.addPhase(EnginePhase::Evaluate, 5);
    prof.addPhase(EnginePhase::Record, 3);
    prof.addRun(100, 2000);
    prof.addRun(50, 1000);
    EXPECT_EQ(prof.phaseNs(EnginePhase::Evaluate), 15u);
    EXPECT_EQ(prof.phaseNs(EnginePhase::Record), 3u);
    EXPECT_EQ(prof.ticks(), 150u);
    EXPECT_EQ(prof.wallNs(), 3000u);
}

TEST(Profiler, WriteJsonShape)
{
    EngineProfiler prof;
    prof.setSchedule(schedule(), 2);
    prof.addObserve(0, 100, 0);
    prof.addObserve(0, 100, 0);
    prof.addStep(1, 200, 1);
    prof.addRun(10, 1000000);

    std::ostringstream out;
    prof.writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"ticks\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"GM/group\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"global\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"observe_calls\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"step_calls\": 1"), std::string::npos);
}

TEST(Profiler, WriteTableSmoke)
{
    EngineProfiler prof;
    prof.setSchedule(schedule(), 2);
    prof.addObserve(0, 2000000, 0);
    prof.addStep(1, 1000000, 1);
    prof.addRun(10, 4000000);

    std::ostringstream out;
    prof.writeTable(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("Engine profile"), std::string::npos);
    EXPECT_NE(text.find("GM/group"), std::string::npos);
    EXPECT_NE(text.find("SM/fleet"), std::string::npos);
    EXPECT_NE(text.find("global"), std::string::npos);
    EXPECT_NE(text.find("kernel"), std::string::npos);
    EXPECT_NE(text.find("(cluster evaluate)"), std::string::npos);
    EXPECT_NE(text.find("ticks/sec"), std::string::npos);
}

} // namespace
