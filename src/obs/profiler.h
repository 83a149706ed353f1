/**
 * @file
 * EngineProfiler: per-actor, per-phase wall-clock timing for the tick
 * engine, with worker-lane attribution.
 *
 * The engine (when a profiler is attached) times every actor call — a
 * global actor's observe()/step(), a kernel's once per shard — and the
 * two engine-level phases (cluster evaluation, metrics recording).
 * Per-actor accumulators are pre-sized at plan time, one lane per
 * worker; a worker writes only its own lane, and the barriers between
 * segments order the accesses across ticks, so accumulation needs no
 * locks.
 *
 * Profiling measures wall-clock only — it never feeds back into the
 * simulation arithmetic, so results stay bit-identical with or without
 * it. The *timings* naturally vary run to run; only the structural
 * fields (actors, shards, call counts) are deterministic.
 */

#ifndef NPS_OBS_PROFILER_H
#define NPS_OBS_PROFILER_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace nps {
namespace obs {

/** Engine-level phases timed as a whole, not per actor. */
enum class EnginePhase
{
    Evaluate, //!< Cluster::evaluateTick
    Record,   //!< MetricsCollector::record
};

class EngineProfiler
{
  public:
    /** What the engine tells us about one scheduled actor. */
    struct ActorInfo
    {
        std::string name;
        bool kernel = false; //!< a kernel actor, else a global one
    };

    /** Per-actor accumulated timings. */
    struct ActorStats
    {
        ActorInfo info;
        std::uint64_t observe_calls = 0;
        std::uint64_t observe_ns = 0;
        std::uint64_t step_calls = 0;
        std::uint64_t step_ns = 0;
        unsigned slot = 0; //!< highest worker slot that ran the actor
    };

    using Clock = std::chrono::steady_clock;

    /** @return nanoseconds elapsed since @p start. */
    static std::uint64_t sinceNs(Clock::time_point start)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
    }

    /**
     * (Re)announce the schedule. Called by the engine whenever it
     * rebuilds its plan; accumulated timings survive as long as the
     * actor list is unchanged, otherwise they reset.
     */
    void setSchedule(std::vector<ActorInfo> actors, unsigned threads);

    /**
     * Record one observe() call of actor @p idx on worker @p slot. Each
     * worker slot accumulates into its own lane, so a kernel actor
     * timed on every shard at once is race-free; @pre slot < threads.
     */
    void addObserve(size_t idx, std::uint64_t ns, unsigned slot)
    {
        Lane &l = lanes_[slot][idx];
        ++l.observe_calls;
        l.observe_ns += ns;
    }

    /** Record one step() call of actor @p idx on worker @p slot. */
    void addStep(size_t idx, std::uint64_t ns, unsigned slot)
    {
        Lane &l = lanes_[slot][idx];
        ++l.step_calls;
        l.step_ns += ns;
    }

    /** Accumulate one engine-level phase slice. */
    void addPhase(EnginePhase phase, std::uint64_t ns);

    /** Accumulate whole-run wall time and the ticks it covered. */
    void addRun(size_t ticks, std::uint64_t wall_ns)
    {
        ticks_ += ticks;
        wall_ns_ += wall_ns;
    }

    size_t ticks() const { return ticks_; }
    std::uint64_t wallNs() const { return wall_ns_; }
    unsigned threads() const { return threads_; }
    /**
     * Per-actor timings summed over the worker lanes; `slot` is the
     * highest worker slot that ran the actor. Engine thread only, while
     * no run is in flight.
     */
    const std::vector<ActorStats> &actorStats() const;
    std::uint64_t phaseNs(EnginePhase phase) const;

    /**
     * Human-readable summary: per-actor rows sorted by total time
     * (descending, name tiebreak), engine phases, run totals.
     */
    void writeTable(std::ostream &out) const;

    /** The same data as JSON (actors in schedule order). */
    void writeJson(std::ostream &out) const;

  private:
    /** One worker slot's accumulators for one actor. */
    struct Lane
    {
        std::uint64_t observe_calls = 0;
        std::uint64_t observe_ns = 0;
        std::uint64_t step_calls = 0;
        std::uint64_t step_ns = 0;
    };

    /** lanes_[slot][actor], sized by setSchedule(). */
    std::vector<std::vector<Lane>> lanes_;
    /** The folded view actorStats() returns. */
    mutable std::vector<ActorStats> actors_;
    std::uint64_t evaluate_ns_ = 0;
    std::uint64_t record_ns_ = 0;
    size_t ticks_ = 0;
    std::uint64_t wall_ns_ = 0;
    unsigned threads_ = 1;
};

} // namespace obs
} // namespace nps

#endif // NPS_OBS_PROFILER_H
