/**
 * @file
 * MetricsRegistry: named counters, gauges, and histograms with
 * deterministic, thread-count-invariant export.
 *
 * The registry follows the same determinism recipe as
 * bus::ControlPlaneLog: every instrument is registered once at wiring
 * time (single-threaded) and hands its owner a private cell pointer.
 * At runtime each owner — including kernel slots running on worker
 * threads — writes only to its own cells, so recording is lock-free and
 * contention-free, and no cross-thread ordering can leak into the
 * values. Export sorts series by (family, label), making the text
 * byte-identical for any engine thread count.
 *
 * Families group series of one kind under one name, Prometheus-style:
 * a counter family "nps_sm_grant_clamps_total" may hold one series per
 * server manager, labelled by controller id ("SM/3"). Export formats
 * are the Prometheus text exposition and JSON.
 */

#ifndef NPS_OBS_METRICS_H
#define NPS_OBS_METRICS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"

namespace nps {
namespace obs {

/** Monotonically increasing count of events. */
class Counter
{
  public:
    void add(double v = 1.0) { value_ += v; }
    double value() const { return value_; }

    /** Overwrite the count verbatim (checkpoint restore only). */
    void restore(double v) { value_ = v; }

  private:
    double value_ = 0.0;
};

/** Point-in-time value; overwritten, not accumulated. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Fixed-bucket histogram. Bucket upper bounds are set at registration;
 * an implicit +Inf bucket catches the rest. Export is cumulative, as in
 * the Prometheus exposition format.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket (non-cumulative) counts; last entry is +Inf. */
    const std::vector<std::uint64_t> &counts() const { return counts_; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Overwrite buckets and totals verbatim (checkpoint restore only). */
    void restore(std::vector<std::uint64_t> counts, std::uint64_t count,
                 double sum);

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * The registry of all instruments. Register at wiring time, record at
 * runtime through the returned cell pointers, export after the run.
 */
class MetricsRegistry
{
  public:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };

    /**
     * Register a counter series @p label under family @p family and
     * return its private cell. Must be called single-threaded, before
     * the engine runs. Registering the same (family, label) pair twice,
     * or reusing a family name with a different kind or help string, is
     * fatal.
     */
    Counter *counter(const std::string &family, const std::string &label,
                     const std::string &help);

    /** Register a gauge series; same contract as counter(). */
    Gauge *gauge(const std::string &family, const std::string &label,
                 const std::string &help);

    /**
     * Register a histogram series; same contract as counter(). All
     * series of one family must pass identical @p bounds.
     */
    Histogram *histogram(const std::string &family,
                         const std::string &label, const std::string &help,
                         const std::vector<double> &bounds);

    /** Number of registered families. */
    size_t numFamilies() const { return families_.size(); }

    /** Total number of registered series across all families. */
    size_t numSeries() const;

    /**
     * Sum of a counter/gauge family's series values, in registration
     * order. Fatal if the family does not exist or is a histogram.
     */
    double total(const std::string &family) const;

    /**
     * Value of series @p label in @p family, or @p fallback when the
     * family or series does not exist. Histogram series report their
     * observation count.
     */
    double value(const std::string &family, const std::string &label,
                 double fallback = 0.0) const;

    /**
     * Runtime (wall-clock) families are prefixed "nps_rt_": their values
     * are real-time measurements, so they are excluded from everything
     * that must be deterministic — checkpoints, cross-rank digests, and
     * determinism diffs — while still appearing in live scrapes and the
     * end-of-run export.
     */
    static bool isRuntimeFamily(const std::string &family);

    /** Bucket bounds (milliseconds) shared by the runtime latency
     * histograms; spans sub-tick µs costs up to multi-second stalls. */
    static const std::vector<double> &runtimeMsBounds();

    /**
     * Prometheus text exposition, sorted by (family, label). With
     * @p skip_runtime the "nps_rt_" families are omitted, producing the
     * deterministic subset used by cross-rank digests.
     */
    void writeProm(std::ostream &out, bool skip_runtime = false) const;

    /** JSON export with the same deterministic ordering. */
    void writeJson(std::ostream &out) const;

    /** Read-only view of one registered series, for external exporters. */
    struct SeriesRef
    {
        const std::string &family;
        Kind kind;
        const std::string &help;
        const std::string &label;
        const Counter *counter;       //!< non-null for counters
        const Gauge *gauge;           //!< non-null for gauges
        const Histogram *histogram;   //!< non-null for histograms
    };

    /**
     * Visit every series in the deterministic (family, label) sorted
     * export order (the same order writeProm emits).
     */
    void forEachSeries(
        const std::function<void(const SeriesRef &)> &fn) const;

    /**
     * Serialize every deterministic series' value(s), keyed by
     * (family, label). Runtime ("nps_rt_") families are skipped on both
     * sides: different processes of one distributed run register
     * different runtime sets (supervisor vs node), and their wall-clock
     * values must never leak into a restored simulation.
     */
    void saveState(ckpt::SectionWriter &w) const;

    /**
     * Restore values into already-registered series matched by
     * (family, label). Fatal when the snapshot's instrument set differs
     * from the rebuilt registration (config mismatch).
     */
    void loadState(ckpt::SectionReader &r);

  private:
    struct Series
    {
        std::string label;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    struct Family
    {
        std::string name;
        Kind kind = Kind::Counter;
        std::string help;
        std::vector<double> bounds; //!< histograms only
        std::vector<Series> series;
    };

    Family *familyFor(const std::string &name, Kind kind,
                      const std::string &help);
    static void checkNewSeries(const Family &fam, const std::string &label);
    /** Families sorted by name with series sorted by label. */
    std::vector<const Family *> sortedFamilies() const;

    std::vector<std::unique_ptr<Family>> families_;
};

/** Canonical lower-case name of a metric kind ("counter", ...). */
const char *metricKindName(MetricsRegistry::Kind kind);

/**
 * Format a metric value the way both exporters print it: integral
 * values without a decimal point, everything else via "%.17g" (exact
 * double round-trip). Deterministic for deterministic inputs.
 */
std::string formatMetricValue(double v);

} // namespace obs
} // namespace nps

#endif // NPS_OBS_METRICS_H
