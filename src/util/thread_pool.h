/**
 * @file
 * A small reusable worker pool for deterministic fork/join parallelism.
 *
 * The pool exists for one pattern: fan a fixed number of *shards* out
 * across persistent worker threads and block until every shard has run
 * (parallelFor). Shard indices are dense [0, shards); the mapping of
 * shards to work must be static so that repeated invocations partition
 * the work identically — the determinism contract of the parallel tick
 * engine (see docs/PARALLELISM.md) is built on top of that.
 *
 * A pool of size <= 1 (or a 1-shard call) degenerates to an inline
 * serial loop in ascending shard order, so callers need no special
 * casing for the serial configuration.
 */

#ifndef NPS_UTIL_THREAD_POOL_H
#define NPS_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nps {
namespace util {

/**
 * The static partition the sharded phases use: @p items split into
 * @p shards contiguous blocks of ceil(items / shards) (at least 1), the
 * last block short. The engine's kernel actors and FleetGen's trace
 * fill partition with this one helper, so a worker touches the same
 * items in every actor phase. Cluster::evaluateTick
 * cuts its contiguous blocks by work instead (docs/PARALLELISM.md).
 */
class ShardRange
{
  public:
    /** @pre shards >= 1 */
    ShardRange(size_t items, size_t shards)
        : items_(items),
          block_(items > shards ? (items + shards - 1) / shards : 1)
    {
    }

    /** First item of shard @p s (== items() for an empty shard). */
    size_t
    lo(size_t s) const
    {
        const size_t l = s * block_;
        return l < items_ ? l : items_;
    }

    /** One past the last item of shard @p s. */
    size_t
    hi(size_t s) const
    {
        const size_t h = (s + 1) * block_;
        return h < items_ ? h : items_;
    }

  private:
    size_t items_;
    size_t block_;
};

/**
 * Fixed-size fork/join worker pool.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 resolves to hardwareThreads().
     * A pool of size 1 spawns no threads and runs everything inline.
     */
    explicit ThreadPool(unsigned threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Resolved worker count (>= 1). */
    unsigned size() const { return size_; }

    /**
     * Run fn(shard) for every shard in [0, shards) and block until all
     * complete. The calling thread participates, so a pool of size N
     * uses at most N OS threads in total. fn must not throw and must
     * not re-enter parallelFor on the same pool.
     */
    void parallelFor(size_t shards, const std::function<void(size_t)> &fn);

    /** std::thread::hardware_concurrency(), clamped to >= 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop(unsigned index);
    void runShards(unsigned long generation, unsigned index);

    unsigned size_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    const std::function<void(size_t)> *job_ = nullptr;
    size_t job_shards_ = 0;
    size_t pending_shards_ = 0;
    /**
     * Per-shard claim flags for the current job. Worker i claims shard
     * i first and only then steals unclaimed shards (ascending from its
     * own), so across repeated parallelFor calls — the per-tick phases
     * of the engine — a shard's working set stays with the same thread
     * (and core) instead of migrating on every dispatch, while a
     * stalled worker still cannot leave work stranded.
     */
    std::vector<char> claimed_;
    unsigned long generation_ = 0;
    bool stop_ = false;
};

} // namespace util
} // namespace nps

#endif // NPS_UTIL_THREAD_POOL_H
