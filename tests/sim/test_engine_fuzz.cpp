/**
 * @file
 * Randomized scheduling tests for the tick engine.
 *
 * Each iteration builds a random actor population — random periods,
 * random insertion order, a random mix of kernels and global actors —
 * runs it at a random thread count, and checks the engine's scheduling
 * invariants hold regardless of the draw:
 *
 *   - no actor steps at tick 0;
 *   - every slot of every actor (a global actor has one) observes every
 *     tick, and steps exactly at the positive multiples of its period;
 *   - all observations of a tick complete before any step of it;
 *   - within each phase, a global actor is a barrier: everything
 *     scheduled before it has finished, on every slot, before it runs,
 *     and everything after it starts later;
 *   - two kernels run on the same slot in schedule order: coarse period
 *     first, stable by insertion order for ties.
 *
 * Kernel slots on *different* servers may interleave freely within a
 * segment — the tests deliberately do not constrain them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.h"
#include "sim/engine.h"

namespace {

using namespace nps::sim;

/** (tick, sequence number) of every call one slot received. */
using Stamps = std::vector<std::pair<size_t, uint64_t>>;

/**
 * A global actor (one slot) or a kernel (one slot per server) that
 * stamps every call of every slot with a process-wide sequence number.
 * A slot is only ever run by one shard, so its stamp list needs no lock.
 */
class FuzzActor : public Actor
{
  public:
    FuzzActor(std::string name, unsigned period, bool kernel, size_t slots,
              std::atomic<uint64_t> *clock)
        : observe_stamps(kernel ? slots : 1),
          step_stamps(kernel ? slots : 1), name_(std::move(name)),
          period_(period), kernel_(kernel), clock_(clock)
    {
    }

    const std::string &name() const override { return name_; }
    unsigned period() const override { return period_; }
    Kind kind() const override
    {
        return kernel_ ? Kind::Kernel : Kind::Global;
    }

    void observe(size_t tick) override { stamp(observe_stamps[0], tick); }
    void step(size_t tick) override { stamp(step_stamps[0], tick); }

    void
    observeSlots(size_t tick, size_t lo, size_t hi) override
    {
        for (size_t i = lo; i < hi; ++i)
            stamp(observe_stamps[i], tick);
    }

    void
    stepSlots(size_t tick, size_t lo, size_t hi) override
    {
        for (size_t i = lo; i < hi; ++i)
            stamp(step_stamps[i], tick);
    }

    bool kernel() const { return kernel_; }

    std::vector<Stamps> observe_stamps; //!< per slot
    std::vector<Stamps> step_stamps;    //!< per slot

  private:
    void
    stamp(Stamps &stamps, size_t tick)
    {
        stamps.push_back({tick, clock_->fetch_add(1)});
    }

    std::string name_;
    unsigned period_;
    bool kernel_;
    std::atomic<uint64_t> *clock_;
};

uint64_t
stampAt(const Stamps &stamps, size_t tick)
{
    for (const auto &s : stamps)
        if (s.first == tick)
            return s.second;
    ADD_FAILURE() << "no stamp at tick " << tick;
    return 0;
}

/** Earliest and latest stamp of @p slots at @p tick, over all slots. */
std::pair<uint64_t, uint64_t>
spanAt(const std::vector<Stamps> &slots, size_t tick)
{
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const Stamps &s : slots) {
        const uint64_t t = stampAt(s, tick);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
    }
    return {lo, hi};
}

/**
 * Check the phase order at @p tick of @p first, then @p second (by
 * schedule rank): a barrier when either is global, else slot by slot.
 */
void
expectOrdered(const FuzzActor &first, const FuzzActor &second,
              const std::vector<Stamps> &a, const std::vector<Stamps> &b,
              size_t tick, const char *phase)
{
    if (first.kernel() && second.kernel()) {
        for (size_t slot = 0; slot < a.size(); ++slot) {
            EXPECT_LT(stampAt(a[slot], tick), stampAt(b[slot], tick))
                << first.name() << " must " << phase << " before "
                << second.name() << " on slot " << slot << " at tick "
                << tick;
        }
        return;
    }
    EXPECT_LT(spanAt(a, tick).second, spanAt(b, tick).first)
        << first.name() << " (period " << first.period() << ") must "
        << phase << " before " << second.name() << " (period "
        << second.period() << ") at tick " << tick;
}

void
fuzzOnce(uint32_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    constexpr size_t kTicks = 40;
    const unsigned kThreadChoices[] = {1, 2, 3, 4, 8};

    Cluster cluster = nps_test::smallCluster();
    MetricsCollector metrics;
    Engine engine(cluster, metrics);
    const unsigned threads = kThreadChoices[rng() % 5];
    SCOPED_TRACE("threads " + std::to_string(threads));
    engine.setThreads(threads);

    std::atomic<uint64_t> clock{0};
    const size_t count = 8 + rng() % 12;
    std::vector<std::shared_ptr<FuzzActor>> actors;
    for (size_t i = 0; i < count; ++i) {
        const unsigned period = 1 + rng() % 13;
        const bool kernel = rng() % 3 != 0;
        actors.push_back(std::make_shared<FuzzActor>(
            "f" + std::to_string(i), period, kernel, cluster.numServers(),
            &clock));
        engine.addActor(actors.back());
    }
    engine.run(kTicks);

    // Schedule rank: descending period, stable by insertion order.
    std::vector<size_t> rank_of(count);
    {
        std::vector<size_t> order(count);
        for (size_t i = 0; i < count; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return actors[a]->period() >
                                    actors[b]->period();
                         });
        for (size_t pos = 0; pos < count; ++pos)
            rank_of[order[pos]] = pos;
    }

    for (const auto &a : actors) {
        std::vector<size_t> expected;
        for (size_t t = a->period(); t < kTicks; t += a->period())
            expected.push_back(t);
        for (size_t slot = 0; slot < a->observe_stamps.size(); ++slot) {
            SCOPED_TRACE(a->name() + " slot " + std::to_string(slot));
            // Every tick observed, in order.
            const Stamps &obs = a->observe_stamps[slot];
            ASSERT_EQ(obs.size(), kTicks);
            for (size_t t = 0; t < kTicks; ++t)
                EXPECT_EQ(obs[t].first, t);

            // Steps at exactly the positive multiples of the period.
            const Stamps &steps = a->step_stamps[slot];
            ASSERT_EQ(steps.size(), expected.size());
            for (size_t i = 0; i < expected.size(); ++i)
                EXPECT_EQ(steps[i].first, expected[i]);
        }
    }

    for (size_t tick = 1; tick < kTicks; ++tick) {
        // All observations of a tick happen before any step of it.
        uint64_t max_observe = 0;
        uint64_t min_step = UINT64_MAX;
        for (const auto &a : actors) {
            max_observe =
                std::max(max_observe, spanAt(a->observe_stamps, tick).second);
            if (tick % a->period() == 0)
                min_step =
                    std::min(min_step, spanAt(a->step_stamps, tick).first);
        }
        if (min_step != UINT64_MAX) {
            EXPECT_LT(max_observe, min_step) << "tick " << tick;
        }

        // Every pair, in both phases, in schedule order.
        for (size_t i = 0; i < count; ++i) {
            for (size_t j = i + 1; j < count; ++j) {
                const bool i_first = rank_of[i] < rank_of[j];
                const FuzzActor &first = *actors[i_first ? i : j];
                const FuzzActor &second = *actors[i_first ? j : i];
                expectOrdered(first, second, first.observe_stamps,
                              second.observe_stamps, tick, "observe");
                if (tick % first.period() == 0 &&
                    tick % second.period() == 0)
                    expectOrdered(first, second, first.step_stamps,
                                  second.step_stamps, tick, "step");
            }
        }
    }
}

TEST(EngineFuzz, RandomActorSetsKeepSchedulingInvariants)
{
    for (uint32_t seed : {1u, 7u, 42u, 1234u, 99999u, 3u, 21u, 777u, 4242u})
        fuzzOnce(seed);
}

TEST(EngineFuzz, AllGlobalPopulationStaysSerialOrdered)
{
    // Degenerate draw: every actor global — the engine must run them
    // one after another in schedule order at any thread count.
    std::mt19937 rng(5);
    constexpr size_t kTicks = 30;
    Cluster cluster = nps_test::smallCluster();
    MetricsCollector metrics;
    Engine engine(cluster, metrics);
    engine.setThreads(4);
    std::atomic<uint64_t> clock{0};
    std::vector<std::shared_ptr<FuzzActor>> actors;
    for (size_t i = 0; i < 10; ++i) {
        actors.push_back(std::make_shared<FuzzActor>(
            "g" + std::to_string(i), 1 + rng() % 5, /*kernel=*/false,
            cluster.numServers(), &clock));
        engine.addActor(actors.back());
    }
    engine.run(kTicks);
    for (size_t tick = 1; tick < kTicks; ++tick) {
        uint64_t prev = 0;
        bool have_prev = false;
        for (const auto &a : engine.actors()) {
            if (tick % a->period() != 0)
                continue;
            auto *fa = dynamic_cast<FuzzActor *>(a.get());
            ASSERT_NE(fa, nullptr);
            const uint64_t stamp = stampAt(fa->step_stamps[0], tick);
            if (have_prev) {
                EXPECT_LT(prev, stamp) << "tick " << tick;
            }
            prev = stamp;
            have_prev = true;
        }
    }
}

} // namespace
