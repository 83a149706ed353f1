/**
 * @file
 * Tests for the discrete-time engine: scheduling order, period handling,
 * the no-actuation-at-tick-0 rule, and observe() delivery.
 */

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common/fixtures.h"
#include "sim/engine.h"

namespace {

using namespace nps::sim;

/** Records every step and observation it receives. */
class ProbeActor : public Actor
{
  public:
    ProbeActor(std::string name, unsigned period,
               std::vector<std::string> *log)
        : name_(std::move(name)), period_(period), log_(log)
    {
    }

    const std::string &name() const override { return name_; }
    unsigned period() const override { return period_; }

    void
    observe(size_t tick) override
    {
        (void)tick;
        ++observations;
    }

    void
    step(size_t tick) override
    {
        log_->push_back(name_ + "@" + std::to_string(tick));
        steps.push_back(tick);
    }

    std::vector<size_t> steps;
    unsigned observations = 0;

  private:
    std::string name_;
    unsigned period_;
    std::vector<std::string> *log_;
};

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest() : cluster_(nps_test::smallCluster()), metrics_(),
                   engine_(cluster_, metrics_)
    {
    }

    Cluster cluster_;
    MetricsCollector metrics_;
    Engine engine_;
    std::vector<std::string> log_;
};

TEST_F(EngineTest, NoStepsAtTickZero)
{
    auto a = std::make_shared<ProbeActor>("a", 1, &log_);
    engine_.addActor(a);
    engine_.run(1);
    EXPECT_TRUE(a->steps.empty());
    EXPECT_EQ(a->observations, 1u);
    EXPECT_EQ(metrics_.summary().ticks, 1u);
}

TEST_F(EngineTest, PeriodsRespected)
{
    auto fast = std::make_shared<ProbeActor>("fast", 1, &log_);
    auto slow = std::make_shared<ProbeActor>("slow", 5, &log_);
    engine_.addActor(fast);
    engine_.addActor(slow);
    engine_.run(11);
    EXPECT_EQ(fast->steps.size(), 10u);  // ticks 1..10
    ASSERT_EQ(slow->steps.size(), 2u);   // ticks 5 and 10
    EXPECT_EQ(slow->steps[0], 5u);
    EXPECT_EQ(slow->steps[1], 10u);
    EXPECT_EQ(fast->observations, 11u);
}

TEST_F(EngineTest, CoarseActorsStepFirst)
{
    auto fast = std::make_shared<ProbeActor>("fast", 1, &log_);
    auto slow = std::make_shared<ProbeActor>("slow", 10, &log_);
    // Insert the fine one first; order must still be coarse-first.
    engine_.addActor(fast);
    engine_.addActor(slow);
    engine_.run(11);
    auto slow_pos = std::find(log_.begin(), log_.end(), "slow@10");
    auto fast_pos = std::find(log_.begin(), log_.end(), "fast@10");
    ASSERT_NE(slow_pos, log_.end());
    ASSERT_NE(fast_pos, log_.end());
    EXPECT_LT(slow_pos - log_.begin(), fast_pos - log_.begin());
}

TEST_F(EngineTest, EqualPeriodsKeepInsertionOrder)
{
    auto first = std::make_shared<ProbeActor>("first", 2, &log_);
    auto second = std::make_shared<ProbeActor>("second", 2, &log_);
    engine_.addActor(first);
    engine_.addActor(second);
    engine_.run(3);
    ASSERT_EQ(log_.size(), 2u);
    EXPECT_EQ(log_[0], "first@2");
    EXPECT_EQ(log_[1], "second@2");
}

TEST_F(EngineTest, NowAdvancesAcrossRuns)
{
    auto a = std::make_shared<ProbeActor>("a", 3, &log_);
    engine_.addActor(a);
    engine_.run(4);  // ticks 0..3, step at 3
    EXPECT_EQ(engine_.now(), 4u);
    engine_.run(3);  // ticks 4..6, step at 6
    EXPECT_EQ(engine_.now(), 7u);
    ASSERT_EQ(a->steps.size(), 2u);
    EXPECT_EQ(a->steps[1], 6u);
}

TEST_F(EngineTest, MetricsRecordedEveryTick)
{
    engine_.run(17);
    EXPECT_EQ(metrics_.summary().ticks, 17u);
}

TEST_F(EngineTest, ActorAddedBetweenRunsJoinsCoarseFirstSchedule)
{
    auto fast = std::make_shared<ProbeActor>("fast", 1, &log_);
    engine_.addActor(fast);
    engine_.run(5);  // ticks 0..4
    // Registration between runs is allowed; the schedule is rebuilt at
    // the next run() and the newcomer slots into coarse-first order.
    auto slow = std::make_shared<ProbeActor>("slow", 2, &log_);
    engine_.addActor(slow);
    engine_.run(6);  // ticks 5..10
    ASSERT_EQ(slow->steps.size(), 3u);  // ticks 6, 8, 10
    EXPECT_EQ(slow->steps[0], 6u);
    EXPECT_EQ(slow->observations, 6u);  // observes from tick 5 only
    auto slow_pos = std::find(log_.begin(), log_.end(), "slow@6");
    auto fast_pos = std::find(log_.begin(), log_.end(), "fast@6");
    ASSERT_NE(slow_pos, log_.end());
    ASSERT_NE(fast_pos, log_.end());
    EXPECT_LT(slow_pos - log_.begin(), fast_pos - log_.begin());
}

TEST_F(EngineTest, AddActorDefersSortingUntilRun)
{
    // addActor() must not re-sort eagerly: before the first run() the
    // actors() view keeps insertion order even for out-of-order periods.
    auto fine = std::make_shared<ProbeActor>("fine", 1, &log_);
    auto coarse = std::make_shared<ProbeActor>("coarse", 9, &log_);
    engine_.addActor(fine);
    engine_.addActor(coarse);
    ASSERT_EQ(engine_.actors().size(), 2u);
    EXPECT_EQ(engine_.actors()[0]->name(), "fine");
    EXPECT_EQ(engine_.actors()[1]->name(), "coarse");
    engine_.run(10);
    // After run() the schedule order (coarse-first) is visible.
    EXPECT_EQ(engine_.actors()[0]->name(), "coarse");
    EXPECT_EQ(engine_.actors()[1]->name(), "fine");
}

TEST_F(EngineTest, ActorsOrderingContractInBothPhases)
{
    // Pins the two-phase actors() ordering contract documented on
    // Engine::actors(): insertion order before the first run(), schedule
    // order (descending period, stable for ties) afterwards.
    auto fine = std::make_shared<ProbeActor>("fine", 1, &log_);
    auto mid_a = std::make_shared<ProbeActor>("mid_a", 5, &log_);
    auto coarse = std::make_shared<ProbeActor>("coarse", 10, &log_);
    auto mid_b = std::make_shared<ProbeActor>("mid_b", 5, &log_);
    engine_.addActor(fine);
    engine_.addActor(mid_a);
    engine_.addActor(coarse);
    engine_.addActor(mid_b);

    // Phase 1: insertion order.
    ASSERT_EQ(engine_.actors().size(), 4u);
    EXPECT_EQ(engine_.actors()[0]->name(), "fine");
    EXPECT_EQ(engine_.actors()[1]->name(), "mid_a");
    EXPECT_EQ(engine_.actors()[2]->name(), "coarse");
    EXPECT_EQ(engine_.actors()[3]->name(), "mid_b");

    // Phase 2: after run() the vector is in schedule order — descending
    // period, equal periods keeping their pre-sort relative order.
    engine_.run(11);
    ASSERT_EQ(engine_.actors().size(), 4u);
    EXPECT_EQ(engine_.actors()[0]->name(), "coarse");
    EXPECT_EQ(engine_.actors()[1]->name(), "mid_a");
    EXPECT_EQ(engine_.actors()[2]->name(), "mid_b");
    EXPECT_EQ(engine_.actors()[3]->name(), "fine");
    EXPECT_EQ(mid_a->steps.size(), 2u); // ticks 5 and 10

    // The step log at tick 10 matches the reported schedule order.
    std::vector<std::string> tick10;
    for (const auto &e : log_)
        if (e.size() > 3 && e.substr(e.size() - 3) == "@10")
            tick10.push_back(e);
    ASSERT_EQ(tick10.size(), 4u);
    EXPECT_EQ(tick10[0], "coarse@10");
    EXPECT_EQ(tick10[1], "mid_a@10");
    EXPECT_EQ(tick10[2], "mid_b@10");
    EXPECT_EQ(tick10[3], "fine@10");
}

TEST_F(EngineTest, NullActorDies)
{
    EXPECT_DEATH(engine_.addActor(nullptr), "null actor");
}

TEST_F(EngineTest, ZeroPeriodDies)
{
    auto a = std::make_shared<ProbeActor>("z", 0, &log_);
    EXPECT_DEATH(engine_.addActor(a), "zero period");
}

TEST_F(EngineTest, DuplicateNameDies)
{
    // Names are the checkpoint roster: a second actor under a taken
    // name dies, before and after the schedule is built. One thread, so
    // the death test forks no running workers.
    engine_.setThreads(1);
    engine_.addActor(std::make_shared<ProbeActor>("a", 1, &log_));
    auto twin = std::make_shared<ProbeActor>("a", 2, &log_);
    EXPECT_DEATH(engine_.addActor(twin), "name a is already taken");
    engine_.run(2);
    EXPECT_DEATH(engine_.addActor(twin), "name a is already taken");
}

/** A toy kernel store: per-slot call counts plus the ranges it ran. */
struct CountingStore
{
    explicit CountingStore(size_t n) : observed(n, 0), stepped(n, 0) {}

    size_t size() const { return stepped.size(); }
    unsigned period() const { return 2; }

    void
    observe(size_t tick, size_t lo, size_t hi)
    {
        (void)tick;
        for (size_t i = lo; i < hi; ++i)
            ++observed[i];
    }

    void
    step(size_t tick, size_t lo, size_t hi)
    {
        (void)tick;
        for (size_t i = lo; i < hi; ++i)
            ++stepped[i];
        std::lock_guard<std::mutex> lock(mutex);
        ranges.insert({lo, hi});
    }

    std::vector<unsigned> observed;
    std::vector<unsigned> stepped;
    std::mutex mutex;
    std::set<std::pair<size_t, size_t>> ranges;
};

TEST_F(EngineTest, KernelActorRunsOncePerShardOnItsBlock)
{
    // 6 servers over 4 shards: blocks of 2, the last shard empty.
    auto store = std::make_shared<CountingStore>(cluster_.numServers());
    auto kernel =
        std::make_shared<KernelActor<CountingStore>>("K/fleet", store);
    EXPECT_EQ(kernel->kind(), Actor::Kind::Kernel);
    engine_.setThreads(4);
    engine_.addActor(kernel);
    engine_.run(5); // steps at ticks 2 and 4
    const std::set<std::pair<size_t, size_t>> blocks = {
        {0, 2}, {2, 4}, {4, 6}, {6, 6}};
    EXPECT_EQ(store->ranges, blocks);
    for (size_t i = 0; i < store->size(); ++i) {
        EXPECT_EQ(store->observed[i], 5u) << i;
        EXPECT_EQ(store->stepped[i], 2u) << i;
    }

    // One thread runs the same plan with one shard: every slot at once.
    store->ranges.clear();
    engine_.setThreads(1);
    engine_.run(2); // steps at tick 6
    const std::set<std::pair<size_t, size_t>> whole = {{0, 6}};
    EXPECT_EQ(store->ranges, whole);
    EXPECT_EQ(store->stepped[5], 3u);
}

} // namespace
