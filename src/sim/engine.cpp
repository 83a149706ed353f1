#include "sim/engine.h"

#include <algorithm>

#include "obs/profiler.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace nps {
namespace sim {

Engine::Engine(Cluster &cluster, MetricsCollector &metrics)
    : cluster_(cluster), metrics_(metrics),
      threads_(util::ThreadPool::hardwareThreads())
{
}

Engine::~Engine() = default;

void
Engine::addActor(std::shared_ptr<Actor> actor)
{
    if (!actor)
        util::fatal("Engine::addActor: null actor");
    if (actor->period() == 0)
        util::fatal("Engine::addActor: actor %s has zero period",
                    actor->name().c_str());
    // Re-registering a name (replacing a controller instance after a
    // fault-driven restart) swaps the actor into the original slot
    // instead of appending. The slot, not the registration time, is what
    // the stable coarse-first sort uses to break period ties, so the
    // replacement steps exactly where its predecessor did and the
    // schedule stays deterministic. The name index keeps both paths
    // O(1); preparePlan rebuilds it after the sort moves slots.
    auto it = slot_of_.find(actor->name());
    if (it != slot_of_.end()) {
        actors_[it->second] = std::move(actor);
        plan_dirty_ = true;
        return;
    }
    slot_of_.emplace(actor->name(), actors_.size());
    actors_.push_back(std::move(actor));
    plan_dirty_ = true;
}

void
Engine::setThreads(unsigned threads)
{
    unsigned resolved =
        threads == 0 ? util::ThreadPool::hardwareThreads() : threads;
    if (resolved == threads_)
        return;
    threads_ = resolved;
    pool_.reset();
    plan_dirty_ = true;
}

void
Engine::preparePlan()
{
    if (!plan_dirty_)
        return;

    // Coarse loops first so inner loops react to fresh outer references
    // within the same tick. Sorting is deferred to here so that actor
    // registration stays O(1) per insert at fleet scale.
    std::stable_sort(actors_.begin(), actors_.end(),
                     [](const auto &a, const auto &b) {
                         return a->period() > b->period();
                     });
    for (size_t i = 0; i < actors_.size(); ++i)
        slot_of_[actors_[i]->name()] = i;

    if (threads_ > 1 && !pool_)
        pool_ = std::make_unique<util::ThreadPool>(threads_);

    // Dispatch caches: raw pointers and periods in schedule order.
    // period() is a constant of the actor (the paper's T_* control
    // intervals), so hoisting the virtual call out of the tick loop is
    // behaviour-preserving.
    raw_.resize(actors_.size());
    period_.resize(actors_.size());
    kernel_.resize(actors_.size());
    for (size_t i = 0; i < actors_.size(); ++i) {
        raw_[i] = actors_[i].get();
        period_[i] = actors_[i]->period();
        kernel_[i] = raw_[i]->shardKey() == Actor::kKernelShard;
    }

    // Static shard assignment: contiguous server-id blocks, one per
    // worker. Keys beyond the server count land in the last shard; a
    // kernel joins every shard and runs over that shard's block.
    // Shardable runs are flattened shard-major so each worker walks one
    // contiguous slice of indices per tick.
    plan_.clear();
    const size_t shards = threads_;
    const util::ShardRange range(cluster_.numServers(), shards);
    shard_lo_.resize(shards);
    shard_hi_.resize(shards);
    for (size_t s = 0; s < shards; ++s) {
        shard_lo_[s] = range.lo(s);
        shard_hi_[s] = range.hi(s);
    }
    std::vector<std::vector<size_t>> scratch;
    auto flush = [&]() {
        if (scratch.empty())
            return;
        Segment seg;
        seg.shardable = true;
        seg.begin.reserve(scratch.size() + 1);
        seg.begin.push_back(0);
        for (const auto &list : scratch) {
            for (size_t idx : list) {
                seg.flat.push_back(idx);
                if (std::find(seg.fire.begin(), seg.fire.end(),
                              period_[idx]) == seg.fire.end())
                    seg.fire.push_back(period_[idx]);
            }
            seg.begin.push_back(seg.flat.size());
        }
        plan_.push_back(std::move(seg));
        scratch.clear();
    };
    for (size_t i = 0; i < actors_.size(); ++i) {
        long key = raw_[i]->shardKey();
        if (kernel_[i]) {
            if (scratch.empty())
                scratch.resize(shards);
            for (auto &list : scratch)
                list.push_back(i);
            continue;
        }
        if (key < 0) {
            flush();
            Segment seg;
            seg.shardable = false;
            seg.actor = i;
            plan_.push_back(std::move(seg));
            continue;
        }
        if (scratch.empty())
            scratch.resize(shards);
        scratch[range.shardOf(static_cast<size_t>(key))].push_back(i);
    }
    flush();
    plan_dirty_ = false;
}

/** True when any of the segment's distinct periods fires at @p tick. */
static bool
segmentFires(const std::vector<unsigned> &fire, size_t tick)
{
    for (unsigned p : fire)
        if (tick % p == 0)
            return true;
    return false;
}

size_t
Engine::runSerial(size_t ticks)
{
    const size_t count = raw_.size();
    for (size_t i = 0; i < ticks; ++i) {
        size_t tick = now_;
        if (source_ && !source_->beginTick(tick))
            return i;
        for (Actor *actor : raw_)
            actor->observe(tick);
        if (tick > 0) {
            for (size_t a = 0; a < count; ++a) {
                if (tick % period_[a] == 0)
                    raw_[a]->step(tick);
            }
        }
        cluster_.evaluateTick(tick);
        metrics_.record(cluster_, tick);
        if (observer_)
            observer_->endTick(tick);
        ++now_;
    }
    return ticks;
}

size_t
Engine::runParallel(size_t ticks)
{
    util::ThreadPool &pool = *pool_;
    for (size_t i = 0; i < ticks; ++i) {
        size_t tick = now_;
        if (source_ && !source_->beginTick(tick))
            return i;
        for (const Segment &seg : plan_) {
            if (!seg.shardable) {
                raw_[seg.actor]->observe(tick);
                continue;
            }
            pool.parallelFor(seg.begin.size() - 1, [&](size_t s) {
                for (size_t k = seg.begin[s]; k < seg.begin[s + 1]; ++k)
                    observeIn(seg.flat[k], tick, s);
            });
        }
        if (tick > 0) {
            for (const Segment &seg : plan_) {
                if (!seg.shardable) {
                    if (tick % period_[seg.actor] == 0)
                        raw_[seg.actor]->step(tick);
                    continue;
                }
                // Skipping the dispatch when no member period divides
                // the tick is exact: every worker would have fired zero
                // steps.
                if (!segmentFires(seg.fire, tick))
                    continue;
                pool.parallelFor(seg.begin.size() - 1, [&](size_t s) {
                    for (size_t k = seg.begin[s]; k < seg.begin[s + 1];
                         ++k) {
                        size_t idx = seg.flat[k];
                        if (tick % period_[idx] == 0)
                            stepIn(idx, tick, s);
                    }
                });
            }
        }
        cluster_.evaluateTick(tick, &pool);
        metrics_.record(cluster_, tick);
        if (observer_)
            observer_->endTick(tick);
        ++now_;
    }
    return ticks;
}

void
Engine::setProfiler(obs::EngineProfiler *profiler)
{
    profiler_ = profiler;
}

void
Engine::announceSchedule()
{
    if (!profiler_)
        return;
    std::vector<obs::EngineProfiler::ActorInfo> infos;
    infos.reserve(actors_.size());
    for (const auto &a : actors_) {
        obs::EngineProfiler::ActorInfo info;
        info.name = a->name();
        info.shard_key = a->shardKey();
        infos.push_back(std::move(info));
    }
    profiler_->setSchedule(std::move(infos), threads_);
}

size_t
Engine::runSerialProfiled(size_t ticks)
{
    using Clock = obs::EngineProfiler::Clock;
    obs::EngineProfiler &prof = *profiler_;
    Clock::time_point run_start = Clock::now();
    size_t done = 0;
    for (size_t i = 0; i < ticks; ++i) {
        size_t tick = now_;
        if (source_ && !source_->beginTick(tick))
            break;
        for (size_t a = 0; a < raw_.size(); ++a) {
            Clock::time_point t0 = Clock::now();
            raw_[a]->observe(tick);
            prof.addObserve(a, obs::EngineProfiler::sinceNs(t0), 0);
        }
        if (tick > 0) {
            for (size_t a = 0; a < raw_.size(); ++a) {
                if (tick % period_[a] != 0)
                    continue;
                Clock::time_point t0 = Clock::now();
                raw_[a]->step(tick);
                prof.addStep(a, obs::EngineProfiler::sinceNs(t0), 0);
            }
        }
        Clock::time_point t0 = Clock::now();
        cluster_.evaluateTick(tick);
        prof.addPhase(obs::EnginePhase::Evaluate,
                      obs::EngineProfiler::sinceNs(t0));
        t0 = Clock::now();
        metrics_.record(cluster_, tick);
        prof.addPhase(obs::EnginePhase::Record,
                      obs::EngineProfiler::sinceNs(t0));
        if (observer_)
            observer_->endTick(tick);
        ++now_;
        ++done;
    }
    prof.addRun(done, obs::EngineProfiler::sinceNs(run_start));
    return done;
}

size_t
Engine::runParallelProfiled(size_t ticks)
{
    using Clock = obs::EngineProfiler::Clock;
    obs::EngineProfiler &prof = *profiler_;
    util::ThreadPool &pool = *pool_;
    Clock::time_point run_start = Clock::now();
    size_t done = 0;
    for (size_t i = 0; i < ticks; ++i) {
        size_t tick = now_;
        if (source_ && !source_->beginTick(tick))
            break;
        for (const Segment &seg : plan_) {
            if (!seg.shardable) {
                Clock::time_point t0 = Clock::now();
                raw_[seg.actor]->observe(tick);
                prof.addObserve(seg.actor,
                                obs::EngineProfiler::sinceNs(t0), 0);
                continue;
            }
            pool.parallelFor(seg.begin.size() - 1, [&](size_t s) {
                for (size_t k = seg.begin[s]; k < seg.begin[s + 1]; ++k) {
                    size_t idx = seg.flat[k];
                    Clock::time_point t0 = Clock::now();
                    observeIn(idx, tick, s);
                    prof.addObserve(idx, obs::EngineProfiler::sinceNs(t0),
                                    static_cast<unsigned>(s));
                }
            });
        }
        if (tick > 0) {
            for (const Segment &seg : plan_) {
                if (!seg.shardable) {
                    if (tick % period_[seg.actor] == 0) {
                        Clock::time_point t0 = Clock::now();
                        raw_[seg.actor]->step(tick);
                        prof.addStep(seg.actor,
                                     obs::EngineProfiler::sinceNs(t0), 0);
                    }
                    continue;
                }
                if (!segmentFires(seg.fire, tick))
                    continue;
                pool.parallelFor(seg.begin.size() - 1, [&](size_t s) {
                    for (size_t k = seg.begin[s]; k < seg.begin[s + 1];
                         ++k) {
                        size_t idx = seg.flat[k];
                        if (tick % period_[idx] != 0)
                            continue;
                        Clock::time_point t0 = Clock::now();
                        stepIn(idx, tick, s);
                        prof.addStep(idx,
                                     obs::EngineProfiler::sinceNs(t0),
                                     static_cast<unsigned>(s));
                    }
                });
            }
        }
        Clock::time_point t0 = Clock::now();
        cluster_.evaluateTick(tick, &pool);
        prof.addPhase(obs::EnginePhase::Evaluate,
                      obs::EngineProfiler::sinceNs(t0));
        t0 = Clock::now();
        metrics_.record(cluster_, tick);
        prof.addPhase(obs::EnginePhase::Record,
                      obs::EngineProfiler::sinceNs(t0));
        if (observer_)
            observer_->endTick(tick);
        ++now_;
        ++done;
    }
    prof.addRun(done, obs::EngineProfiler::sinceNs(run_start));
    return done;
}

size_t
Engine::run(size_t ticks)
{
    preparePlan();
    announceSchedule();
    if (threads_ <= 1) {
        if (profiler_)
            return runSerialProfiled(ticks);
        return runSerial(ticks);
    }
    if (profiler_)
        return runParallelProfiled(ticks);
    return runParallel(ticks);
}

void
Engine::saveState(ckpt::SectionWriter &w) const
{
    w.putU64(now_);
    std::vector<std::string> names;
    names.reserve(actors_.size());
    for (const auto &a : actors_)
        names.push_back(a->name());
    // Sorted: actors_ order depends on whether run() has executed yet.
    std::sort(names.begin(), names.end());
    w.putU64(names.size());
    for (const auto &n : names)
        w.putString(n);
}

void
Engine::loadState(ckpt::SectionReader &r)
{
    now_ = static_cast<size_t>(r.getU64());
    auto count = static_cast<size_t>(r.getU64());
    std::vector<std::string> expect;
    expect.reserve(count);
    for (size_t i = 0; i < count; ++i)
        expect.push_back(r.getString());
    std::vector<std::string> names;
    names.reserve(actors_.size());
    for (const auto &a : actors_)
        names.push_back(a->name());
    std::sort(names.begin(), names.end());
    if (names != expect) {
        for (const auto &n : expect) {
            if (std::find(names.begin(), names.end(), n) == names.end())
                util::fatal("engine restore: snapshot actor '%s' missing "
                            "from rebuilt roster — config/topology "
                            "mismatch",
                            n.c_str());
        }
        for (const auto &n : names) {
            if (std::find(expect.begin(), expect.end(), n) == expect.end())
                util::fatal("engine restore: rebuilt actor '%s' not in "
                            "snapshot — config/topology mismatch",
                            n.c_str());
        }
        util::fatal("engine restore: actor roster mismatch");
    }
}

} // namespace sim
} // namespace nps
