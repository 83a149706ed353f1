/**
 * @file
 * Lightweight statistics accumulators used throughout the simulator for
 * metric collection: streaming mean/variance, min/max, rate counters, and
 * exact percentiles over retained samples.
 */

#ifndef NPS_UTIL_STATS_H
#define NPS_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace nps {
namespace util {

/**
 * Streaming scalar accumulator (Welford's algorithm).
 *
 * Tracks count, mean, variance, min, and max in O(1) space; suitable for
 * per-interval metrics over long simulations.
 */
class RunningStats
{
  public:
    RunningStats() = default;

    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one (parallel-safe reduce). */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void clear();

    /** @return number of observations added. */
    size_t count() const { return count_; }

    /** @return arithmetic mean, or 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** @return sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** @return population variance, or 0 when fewer than 2 samples. */
    double variance() const;

    /** @return population standard deviation. */
    double stddev() const;

    /** @return smallest observation, or +inf when empty. */
    double min() const { return min_; }

    /** @return largest observation, or -inf when empty. */
    double max() const { return max_; }

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_;
    double max_;
};

/**
 * Ratio counter for violation-style metrics: the fraction of events that
 * satisfied some predicate (e.g., intervals in which a power budget was
 * exceeded).
 */
class RateCounter
{
  public:
    /** Record one event; @p hit marks whether the predicate held. */
    void
    record(bool hit)
    {
        ++total_;
        if (hit)
            ++hits_;
    }

    /** Record @p total events at once, @p hits of them hits. */
    void
    add(size_t total, size_t hits)
    {
        total_ += total;
        hits_ += hits;
    }

    /** @return number of recorded events. */
    size_t total() const { return total_; }

    /** @return number of events for which the predicate held. */
    size_t hits() const { return hits_; }

    /** @return hits()/total() in [0,1], or 0 when no events recorded. */
    double rate() const;

    /** Merge another counter into this one. */
    void
    merge(const RateCounter &other)
    {
        total_ += other.total_;
        hits_ += other.hits_;
    }

    /** Reset to the empty state. */
    void
    clear()
    {
        total_ = 0;
        hits_ = 0;
    }

    /** Overwrite the counters verbatim (checkpoint restore only). */
    void
    restore(size_t total, size_t hits)
    {
        total_ = total;
        hits_ = hits;
    }

  private:
    size_t total_ = 0;
    size_t hits_ = 0;
};

/**
 * Sample set with exact quantiles. Retains all samples; intended for
 * analysis passes (benchmark reporting), not for hot simulation loops.
 */
class SampleSet
{
  public:
    /** Add one observation. */
    void add(double x);

    /** @return number of observations. */
    size_t count() const { return samples_.size(); }

    /** @return arithmetic mean, or 0 when empty. */
    double mean() const;

    /**
     * @return the q-quantile (q in [0,1]) with linear interpolation
     * between order statistics; 0 when empty.
     */
    double quantile(double q) const;

    /** @return the full retained sample vector (unsorted insertion order). */
    const std::vector<double> &samples() const { return samples_; }

    /** Reset to the empty state. */
    void clear() { samples_.clear(); sorted_ = true; }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** Clamp @p x into [lo, hi]. @pre lo <= hi */
double clamp(double x, double lo, double hi);

/** Linear interpolation between a and b by t in [0,1]. */
double lerp(double a, double b, double t);

/** @return true when |a - b| <= tol. */
bool nearlyEqual(double a, double b, double tol = 1e-9);

} // namespace util
} // namespace nps

#endif // NPS_UTIL_STATS_H
