/**
 * @file
 * The discrete-time simulation engine.
 *
 * Time advances in unit ticks. Every tick:
 *   1. each registered actor observes the previous tick's measurements
 *      (for controllers that average over long epochs);
 *   2. actors whose control interval divides the tick take a control step
 *      (coarse time constants first, so inner loops see the fresh
 *      references their outer loops just set);
 *   3. the cluster serves demand at the resulting actuator settings;
 *   4. metrics are recorded.
 *
 * Controllers never act at tick 0: the first tick is a pure measurement
 * tick, so every loop starts from a real observation.
 *
 * Parallel execution (docs/PARALLELISM.md): an actor is either a
 * *kernel* (one actor running a per-server loop whose slot i is server
 * i) or *global* (cross-server reads/writes), via Actor::kind(). The
 * engine cuts the schedule into segments — one global actor, or a run
 * of consecutive kernels — and fans every kernel run, and the
 * per-server part of the cluster evaluation, across a worker pool over
 * static, contiguous server shards, with a barrier before every global
 * actor and before metrics recording. One tick loop serves every
 * thread count: threads = 1 runs the same plan with one shard, inline.
 * Results are bit-identical for any thread count.
 */

#ifndef NPS_SIM_ENGINE_H
#define NPS_SIM_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/cluster.h"
#include "sim/metrics.h"

namespace nps {
namespace obs {
class EngineProfiler;
} // namespace obs

namespace util {
class ThreadPool;
} // namespace util

namespace sim {

/**
 * A scheduled participant of the simulation: a controller (EC, SM, EM,
 * GM, VMC, CAP, ...) or any other periodic agent.
 */
class Actor
{
  public:
    /** The two actor kinds (docs/PARALLELISM.md). */
    enum class Kind
    {
        Global, //!< cross-server state; observe()/step() on the engine thread
        Kernel, //!< a per-server loop; observeSlots()/stepSlots() per shard
    };

    virtual ~Actor() = default;

    /** Diagnostic name, unique within an engine. */
    virtual const std::string &name() const = 0;

    /** Control interval in ticks (the paper's T_ec, T_sm, ...). */
    virtual unsigned period() const = 0;

    /**
     * Global (the default): the engine calls observe() and step() on
     * its own thread, with a barrier separating them from the kernels
     * around them; use it for anything that reads or writes
     * cross-server state or a shared RNG. Kernel: the engine calls
     * observeSlots() / stepSlots() instead, once per shard with that
     * shard's server block; a slot may touch only state owned by its
     * server.
     */
    virtual Kind kind() const { return Kind::Global; }

    /**
     * Called every tick (before any control steps) so long-epoch
     * controllers can accumulate averaged observations. Default: no-op.
     */
    virtual void observe(size_t tick) { (void)tick; }

    /** One control step at @p tick. */
    virtual void step(size_t tick) = 0;

    /**
     * Kernel actors only: observe the per-server slots [lo, hi) at
     * @p tick. The engine calls a kernel once per shard with that
     * shard's server block (util::ShardRange over the cluster's
     * servers); with one shard the block is every server.
     */
    virtual void
    observeSlots(size_t tick, size_t lo, size_t hi)
    {
        (void)tick;
        (void)lo;
        (void)hi;
    }

    /** Kernel actors only: one control step of slots [lo, hi). */
    virtual void
    stepSlots(size_t tick, size_t lo, size_t hi)
    {
        (void)tick;
        (void)lo;
        (void)hi;
    }
};

/**
 * The kernel actor of one per-server controller kind: a named, periodic
 * actor over a @p Store whose slot i is server i — a struct-of-arrays
 * store, or ObjectSlots. The store supplies `size()`, `period()`, and
 * the range loops `observe(tick, lo, hi)` / `step(tick, lo, hi)`.
 */
template <class Store>
class KernelActor : public Actor
{
  public:
    KernelActor(std::string name, std::shared_ptr<Store> store)
        : name_(std::move(name)), store_(std::move(store))
    {
    }

    const std::string &name() const override { return name_; }
    unsigned period() const override { return store_->period(); }
    Kind kind() const override { return Kind::Kernel; }

    /** Every slot at once; the engine calls the slot-range forms. */
    void
    observe(size_t tick) override
    {
        store_->observe(tick, 0, store_->size());
    }

    void step(size_t tick) override { store_->step(tick, 0, store_->size()); }

    void
    observeSlots(size_t tick, size_t lo, size_t hi) override
    {
        store_->observe(tick, lo, std::min(hi, store_->size()));
    }

    void
    stepSlots(size_t tick, size_t lo, size_t hi) override
    {
        store_->step(tick, lo, std::min(hi, store_->size()));
    }

  private:
    std::string name_;
    std::shared_ptr<Store> store_;
};

/**
 * A kernel store over one object per slot, for the per-server
 * controllers that keep their state in the object (the electrical
 * capper, the memory manager): slot i runs objects[i]'s observe(tick)
 * and step(tick). Every object shares one control interval.
 */
template <class T>
class ObjectSlots
{
  public:
    ObjectSlots(std::vector<std::shared_ptr<T>> objects, unsigned period)
        : objects_(std::move(objects)), period_(period)
    {
    }

    size_t size() const { return objects_.size(); }
    unsigned period() const { return period_; }

    void
    observe(size_t tick, size_t lo, size_t hi)
    {
        for (size_t i = lo; i < hi; ++i)
            objects_[i]->observe(tick);
    }

    void
    step(size_t tick, size_t lo, size_t hi)
    {
        for (size_t i = lo; i < hi; ++i)
            objects_[i]->step(tick);
    }

  private:
    std::vector<std::shared_ptr<T>> objects_;
    unsigned period_;
};

/**
 * Per-tick gate for externally paced simulation (the online engine,
 * src/stream/): when attached, the engine calls beginTick() at the top
 * of every tick — before any actor observes — so a telemetry feed can
 * stage the tick's externally supplied VM demand (or end the run).
 */
class TickSource
{
  public:
    virtual ~TickSource() = default;

    /**
     * Prepare tick @p tick. Return false to stop the run *before* the
     * tick is simulated (end of stream): Engine::run() returns early
     * and now() still names this tick as the next one to simulate.
     * Called on the engine thread at every thread count, so staging is
     * naturally ordered before all actor/cluster work of the tick.
     */
    virtual bool beginTick(size_t tick) = 0;
};

/**
 * Per-tick completion hook for observation-only consumers (the live
 * observability plane, src/obs/live/): when attached, the engine calls
 * endTick() after the tick is fully simulated and recorded — all actor
 * steps, the cluster evaluation and the metrics record have happened —
 * and before the clock advances. Always invoked on the engine thread,
 * at every thread count, so the hook sees a quiescent simulation.
 * Implementations must not mutate simulation state: results are
 * bit-identical with or without an observer.
 */
class TickObserver
{
  public:
    virtual ~TickObserver() = default;

    /** Tick @p tick has been fully simulated and recorded. */
    virtual void endTick(size_t tick) = 0;
};

/**
 * Drives a Cluster and a set of Actors through simulated time.
 */
class Engine
{
  public:
    /**
     * @param cluster The managed system; must outlive the engine.
     * @param metrics Collector fed once per tick; must outlive the engine.
     */
    Engine(Cluster &cluster, MetricsCollector &metrics);

    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register an actor. Actors are stepped within a tick in descending
     * period order (stable for ties), regardless of insertion order.
     * Registration is allowed between run() calls: the schedule is
     * (re)built lazily at the next run(), so a later-added actor joins
     * the same coarse-first ordering from that run on. fatal() on a null
     * actor, a zero period, or a name that is already registered.
     */
    void addActor(std::shared_ptr<Actor> actor);

    /**
     * @return registered actors.
     *
     * Ordering contract (the single authoritative statement — the
     * scheduling and batching logic key off it):
     *
     *  - Before the first run(), actors are in *insertion order*.
     *  - run() lazily rebuilds the schedule, stable-sorting the vector
     *    into *schedule order*: descending period, ties broken by the
     *    pre-sort order. From then on actors() returns schedule order.
     *  - A subsequent addActor() appends to the (now schedule-ordered)
     *    vector, and the next run() re-sorts.
     *
     * Callers that need a state-independent order must sort by name
     * (as the checkpoint roster does).
     */
    const std::vector<std::shared_ptr<Actor>> &actors() const
    {
        return actors_;
    }

    /**
     * Set the worker-thread count for subsequent run() calls: 0 picks
     * the hardware concurrency, 1 runs the same plan with one shard on
     * the calling thread. Any value yields bit-identical simulation
     * results.
     */
    void setThreads(unsigned threads);

    /** The resolved worker-thread count currently configured. */
    unsigned threads() const { return threads_; }

    /**
     * Attach (or detach, with nullptr) a wall-clock profiler. When
     * attached, every actor call (a kernel's once per shard) and the
     * engine-level phases are timed; the profiler must outlive the
     * engine or be detached first. Timing is observation-only:
     * simulation results are bit-identical with or without a profiler.
     */
    void setProfiler(obs::EngineProfiler *profiler);

    /**
     * Attach (or detach, with nullptr) a per-tick source gate. The
     * source must outlive the engine or be detached first. With no
     * source attached the tick loop is exactly the offline engine —
     * the online path adds one pointer test per tick.
     */
    void setTickSource(TickSource *source) { source_ = source; }

    /**
     * Attach (or detach, with nullptr) a per-tick completion observer.
     * The observer must outlive the engine or be detached first. With
     * no observer attached the tick loop is exactly the plain engine
     * — the hook adds one pointer test per tick.
     */
    void setTickObserver(TickObserver *observer) { observer_ = observer; }

    /**
     * Advance the simulation by up to @p ticks ticks.
     *
     * @return the number of ticks actually simulated: @p ticks, unless
     * an attached TickSource ended the run early.
     */
    size_t run(size_t ticks);

    /** @return the next tick to be simulated. */
    size_t now() const { return now_; }

    /**
     * Serialize the clock and the actor roster (checkpointing). The
     * roster is stored as a sorted name list and used purely as a
     * consistency check on restore — actors serialize their own state.
     */
    void saveState(ckpt::SectionWriter &w) const;

    /**
     * Restore the clock; fatal when the rebuilt actor roster does not
     * match the snapshot's (config/topology mismatch).
     */
    void loadState(ckpt::SectionReader &r);

  private:
    /**
     * One schedule segment: actors [first, last) of the sorted order,
     * either one global actor or a maximal run of consecutive kernels.
     * fire_[fire_lo, fire_hi) holds the distinct periods in the
     * segment, so the step phase can skip a segment on ticks where no
     * member fires.
     */
    struct Segment
    {
        size_t first = 0;
        size_t last = 0;
        size_t fire_lo = 0;
        size_t fire_hi = 0;
        bool kernel = false;
    };

    void preparePlan();
    void announceSchedule();

    /** True when any of @p seg's periods divides @p tick. */
    bool fires(const Segment &seg, size_t tick) const;

    /** The tick loop; @p Timer times actors and phases, or nothing. */
    template <class Timer>
    size_t runTicks(size_t ticks);

    /** The observe (or, with @p Step, the step) phase of tick now(). */
    template <bool Step, class Timer>
    void runPhase();

    /** Segment @p seg's kernels over shard @p s's block. */
    template <bool Step, class Timer>
    void runKernels(const Segment &seg, size_t s);

    Cluster &cluster_;
    MetricsCollector &metrics_;
    std::vector<std::shared_ptr<Actor>> actors_;
    std::unordered_set<std::string> names_; //!< every registered name
    size_t now_ = 0;

    unsigned threads_;
    std::unique_ptr<util::ThreadPool> pool_;
    std::vector<Segment> plan_;
    std::vector<unsigned> fire_; //!< every segment's periods, in order
    // Dispatch caches rebuilt with the plan: raw actor pointers and
    // periods indexed like actors_, so the per-tick loop skips the
    // shared_ptr control-block dereference and the virtual period()
    // call. Valid only while plan_dirty_ is false (addActor and
    // setThreads invalidate).
    std::vector<Actor *> raw_;
    std::vector<unsigned> period_;
    // Each shard's server block [lo, hi), handed to kernels.
    std::vector<size_t> shard_lo_;
    std::vector<size_t> shard_hi_;
    bool plan_dirty_ = true;
    obs::EngineProfiler *profiler_ = nullptr;
    TickSource *source_ = nullptr;
    TickObserver *observer_ = nullptr;
};

} // namespace sim
} // namespace nps

#endif // NPS_SIM_ENGINE_H
