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

namespace {

/** The timer policy of the plain loop: every call compiles to nothing. */
struct NoTimer
{
    struct Stamp
    {
    };

    explicit NoTimer(obs::EngineProfiler *) {}
    static Stamp start() { return {}; }
    void actor(bool, size_t, Stamp, size_t) {}
    void phase(obs::EnginePhase, Stamp) {}
    void run(size_t, Stamp) {}
};

/** The timer policy of the profiled loop: feeds the EngineProfiler. */
struct ProfilerTimer
{
    using Clock = obs::EngineProfiler::Clock;
    using Stamp = Clock::time_point;

    explicit ProfilerTimer(obs::EngineProfiler *profiler) : prof(*profiler) {}
    static Stamp start() { return Clock::now(); }

    /** One call of actor @p idx on worker lane @p lane. */
    void
    actor(bool step, size_t idx, Stamp t0, size_t lane)
    {
        const auto ns = obs::EngineProfiler::sinceNs(t0);
        if (step)
            prof.addStep(idx, ns, static_cast<unsigned>(lane));
        else
            prof.addObserve(idx, ns, static_cast<unsigned>(lane));
    }

    void
    phase(obs::EnginePhase p, Stamp t0)
    {
        prof.addPhase(p, obs::EngineProfiler::sinceNs(t0));
    }

    void
    run(size_t ticks, Stamp t0)
    {
        prof.addRun(ticks, obs::EngineProfiler::sinceNs(t0));
    }

    obs::EngineProfiler &prof;
};

} // namespace

void
Engine::addActor(std::shared_ptr<Actor> actor)
{
    if (!actor)
        util::fatal("Engine::addActor: null actor");
    if (actor->period() == 0)
        util::fatal("Engine::addActor: actor %s has zero period",
                    actor->name().c_str());
    if (!names_.insert(actor->name()).second)
        util::fatal("Engine::addActor: actor name %s is already taken",
                    actor->name().c_str());
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

    if (!pool_)
        pool_ = std::make_unique<util::ThreadPool>(threads_);

    // Dispatch caches: raw pointers and periods in schedule order.
    // period() is a constant of the actor (the paper's T_* control
    // intervals), so hoisting the virtual call out of the tick loop is
    // behaviour-preserving.
    raw_.resize(actors_.size());
    period_.resize(actors_.size());
    for (size_t i = 0; i < actors_.size(); ++i) {
        raw_[i] = actors_[i].get();
        period_[i] = actors_[i]->period();
    }

    // Static shard assignment: contiguous server-id blocks, one per
    // worker; every kernel runs over the same block on the same shard.
    const util::ShardRange range(cluster_.numServers(), threads_);
    shard_lo_.resize(threads_);
    shard_hi_.resize(threads_);
    for (size_t s = 0; s < threads_; ++s) {
        shard_lo_[s] = range.lo(s);
        shard_hi_[s] = range.hi(s);
    }

    // Segments: one per global actor, one per run of kernels.
    plan_.clear();
    fire_.clear();
    for (size_t i = 0; i < actors_.size(); ++i) {
        const bool kernel = raw_[i]->kind() == Actor::Kind::Kernel;
        if (!kernel || plan_.empty() || !plan_.back().kernel)
            plan_.push_back({i, i, fire_.size(), fire_.size(), kernel});
        Segment &seg = plan_.back();
        seg.last = i + 1;
        if (std::find(fire_.begin() + seg.fire_lo, fire_.end(),
                      period_[i]) == fire_.end()) {
            fire_.push_back(period_[i]);
            seg.fire_hi = fire_.size();
        }
    }
    plan_dirty_ = false;
}

bool
Engine::fires(const Segment &seg, size_t tick) const
{
    for (size_t f = seg.fire_lo; f < seg.fire_hi; ++f)
        if (tick % fire_[f] == 0)
            return true;
    return false;
}

template <bool Step, class Timer>
void
Engine::runKernels(const Segment &seg, size_t s)
{
    Timer timer(profiler_);
    const size_t tick = now_;
    for (size_t i = seg.first; i < seg.last; ++i) {
        if (Step && tick % period_[i] != 0)
            continue;
        const auto t0 = timer.start();
        if constexpr (Step)
            raw_[i]->stepSlots(tick, shard_lo_[s], shard_hi_[s]);
        else
            raw_[i]->observeSlots(tick, shard_lo_[s], shard_hi_[s]);
        timer.actor(Step, i, t0, s);
    }
}

template <bool Step, class Timer>
void
Engine::runPhase()
{
    Timer timer(profiler_);
    const size_t tick = now_;
    for (const Segment &seg : plan_) {
        // Skipping a segment when no member period divides the tick is
        // exact: it would have fired zero steps.
        if (Step && !fires(seg, tick))
            continue;
        if (seg.kernel) {
            // A one-shard pool runs inline. The closure's two pointers
            // fit std::function's small buffer: no allocation.
            pool_->parallelFor(shard_lo_.size(), [this, &seg](size_t s) {
                runKernels<Step, Timer>(seg, s);
            });
            continue;
        }
        const auto t0 = timer.start();
        if constexpr (Step)
            raw_[seg.first]->step(tick);
        else
            raw_[seg.first]->observe(tick);
        timer.actor(Step, seg.first, t0, 0);
    }
}

template <class Timer>
size_t
Engine::runTicks(size_t ticks)
{
    Timer timer(profiler_);
    const auto run_start = timer.start();
    size_t done = 0;
    for (; done < ticks; ++done) {
        const size_t tick = now_;
        if (source_ && !source_->beginTick(tick))
            break;
        runPhase<false, Timer>();
        if (tick > 0)
            runPhase<true, Timer>();
        auto t0 = timer.start();
        cluster_.evaluateTick(tick, pool_.get());
        timer.phase(obs::EnginePhase::Evaluate, t0);
        t0 = timer.start();
        metrics_.record(cluster_, tick);
        timer.phase(obs::EnginePhase::Record, t0);
        if (observer_)
            observer_->endTick(tick);
        ++now_;
    }
    timer.run(done, run_start);
    return done;
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
        info.kernel = a->kind() == Actor::Kind::Kernel;
        infos.push_back(std::move(info));
    }
    profiler_->setSchedule(std::move(infos), threads_);
}

size_t
Engine::run(size_t ticks)
{
    preparePlan();
    announceSchedule();
    if (profiler_)
        return runTicks<ProfilerTimer>(ticks);
    return runTicks<NoTimer>(ticks);
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
