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
 * Parallel execution (docs/PARALLELISM.md): actors declare themselves
 * *shardable* (per-server state only, keyed by server id), *kernels*
 * (one actor running a per-server loop over every server) or *global*
 * (cross-server reads/writes) via Actor::shardKey(). The engine fans
 * contiguous runs of shardable and kernel actors — and the per-server
 * part of the cluster evaluation — across a worker pool using static,
 * contiguous server shards, with a barrier before every global actor
 * and before metrics recording. Results are bit-identical to the serial
 * engine for any thread count.
 */

#ifndef NPS_SIM_ENGINE_H
#define NPS_SIM_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
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
    /** shardKey() value of a global (non-shardable) actor. */
    static constexpr long kGlobalShard = -1;

    /** shardKey() value of a kernel actor (see stepSlots()). */
    static constexpr long kKernelShard = -2;

    virtual ~Actor() = default;

    /** Diagnostic name. */
    virtual const std::string &name() const = 0;

    /** Control interval in ticks (the paper's T_ec, T_sm, ...). */
    virtual unsigned period() const = 0;

    /**
     * Shard classification. Return a server id to declare the actor
     * *shardable*: both observe() and step() may then run on a worker
     * thread, concurrently with other shardable actors keyed to
     * different servers. A shardable actor must touch only state owned
     * by its server (the server itself, its own controller state, a
     * controller nested on the same server) and must not use a shared
     * RNG. Return kGlobalShard (the default) for anything that reads or
     * writes cross-server state; global actors always run on the engine
     * thread, with a barrier separating them from neighbouring shardable
     * work. Return kKernelShard for a kernel actor: one actor that holds
     * a per-server loop for every server (observeSlots()/stepSlots()).
     */
    virtual long shardKey() const { return kGlobalShard; }

    /**
     * Called every tick (before any control steps) so long-epoch
     * controllers can accumulate averaged observations. Default: no-op.
     */
    virtual void observe(size_t tick) { (void)tick; }

    /** One control step at @p tick. */
    virtual void step(size_t tick) = 0;

    /**
     * Kernel actors only (shardKey() == kKernelShard): observe / step the
     * per-server slots [lo, hi) at @p tick. The parallel engine calls a
     * kernel once per shard with that shard's server block
     * (util::ShardRange over the cluster's servers), inside the same
     * parallelFor and at the same schedule position as the per-server
     * actors of its segment; the serial engine calls observe()/step(),
     * which must cover every slot. A slot may touch only state owned by
     * its server, exactly like a shardable actor.
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
 * actor over a struct-of-arrays @p Store whose slot i is server i. The
 * store supplies `size()`, `period()`, and the range loops
 * `observe(tick, lo, hi)` / `step(tick, lo, hi)`.
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
    long shardKey() const override { return kKernelShard; }

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
     * the same coarse-first ordering from that run on.
     *
     * Registering an actor whose name() matches an existing registration
     * *replaces* it in place (e.g. a controller instance rebuilt after a
     * fault-driven restart): the replacement inherits its predecessor's
     * slot, and with it the predecessor's position among equal-period
     * actors in the rebuilt schedule. See actors() for the resulting
     * ordering contract.
     */
    void addActor(std::shared_ptr<Actor> actor);

    /**
     * @return registered actors.
     *
     * Ordering contract (the single authoritative statement — the
     * scheduling, batching, and replacement logic all key off it):
     *
     *  - Before the first run(), actors are in *insertion order* —
     *    addActor appends, and a name-matched replacement reuses its
     *    predecessor's slot instead of appending.
     *  - run() lazily rebuilds the schedule, stable-sorting the vector
     *    into *schedule order*: descending period, ties broken by the
     *    pre-sort slot order. From then on actors() returns schedule
     *    order.
     *  - A subsequent addActor() mutates the (now schedule-ordered)
     *    vector — appending a new name, or replacing in place — and the
     *    next run() re-sorts. Because the sort is stable and a
     *    replacement keeps its slot, a replaced actor steps exactly
     *    where its predecessor did among equal-period peers.
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
     * the hardware concurrency, 1 runs the legacy single-threaded path.
     * Any value yields bit-identical simulation results.
     */
    void setThreads(unsigned threads);

    /** The resolved worker-thread count currently configured. */
    unsigned threads() const { return threads_; }

    /**
     * Attach (or detach, with nullptr) a wall-clock profiler. When
     * attached, every actor observe()/step() call and the engine-level
     * phases are timed; the profiler must outlive the engine or be
     * detached first. Timing is observation-only: simulation results
     * are bit-identical with or without a profiler.
     */
    void setProfiler(obs::EngineProfiler *profiler);

    /**
     * Attach (or detach, with nullptr) a per-tick source gate. The
     * source must outlive the engine or be detached first. With no
     * source attached the tick loops are exactly the offline engine —
     * the online path adds one pointer test per tick.
     */
    void setTickSource(TickSource *source) { source_ = source; }

    /**
     * Attach (or detach, with nullptr) a per-tick completion observer.
     * The observer must outlive the engine or be detached first. With
     * no observer attached the tick loops are exactly the plain engine
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
     * One schedule segment: a maximal run of consecutive same-kind
     * actors in the sorted order. A global segment holds exactly one
     * actor. A shardable segment holds the actor indices partitioned by
     * shard in one flat array (shard-major, each shard's slice in
     * schedule order; a kernel actor appears once in every shard's
     * slice) with an offsets table — workers walk a contiguous index
     * range instead of chasing a vector-of-vectors, and `fire` (the
     * distinct periods present in the segment) lets the step phase skip
     * the whole dispatch on ticks where no member fires.
     */
    struct Segment
    {
        bool shardable = false;
        size_t actor = 0;            //!< global only
        std::vector<size_t> flat;    //!< shardable: indices, shard-major
        std::vector<size_t> begin;   //!< shardable: shards+1 offsets
        std::vector<unsigned> fire;  //!< shardable: distinct periods
    };

    void preparePlan();

    /** Observe / step actor @p idx as a member of shard @p s. */
    void
    observeIn(size_t idx, size_t tick, size_t s)
    {
        if (kernel_[idx])
            raw_[idx]->observeSlots(tick, shard_lo_[s], shard_hi_[s]);
        else
            raw_[idx]->observe(tick);
    }

    void
    stepIn(size_t idx, size_t tick, size_t s)
    {
        if (kernel_[idx])
            raw_[idx]->stepSlots(tick, shard_lo_[s], shard_hi_[s]);
        else
            raw_[idx]->step(tick);
    }

    size_t runSerial(size_t ticks);
    size_t runParallel(size_t ticks);
    size_t runSerialProfiled(size_t ticks);
    size_t runParallelProfiled(size_t ticks);
    void announceSchedule();

    Cluster &cluster_;
    MetricsCollector &metrics_;
    std::vector<std::shared_ptr<Actor>> actors_;
    // name -> current slot in actors_, so the replace-by-name path of
    // addActor stays O(1) when per-server actors (cappers, memory
    // managers) are registered at fleet scale. Rebuilt after the
    // schedule sort moves slots.
    std::unordered_map<std::string, size_t> slot_of_;
    size_t now_ = 0;

    unsigned threads_;
    std::unique_ptr<util::ThreadPool> pool_;
    std::vector<Segment> plan_;
    // Dispatch caches rebuilt with the plan: raw actor pointers and
    // periods indexed like actors_, so the per-tick loops skip the
    // shared_ptr control-block dereference and the virtual period()
    // call. Valid only while plan_dirty_ is false (addActor and
    // setThreads invalidate).
    std::vector<Actor *> raw_;
    std::vector<unsigned> period_;
    std::vector<uint8_t> kernel_; //!< 1 for kernel actors
    // Each shard's server block [lo, hi), handed to kernel actors.
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
