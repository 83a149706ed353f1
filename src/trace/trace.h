/**
 * @file
 * Utilization traces: the per-interval CPU demand series that drive the
 * data-center simulation, standing in for the paper's 180 real-enterprise
 * server traces.
 *
 * Utilization is expressed as a fraction of a full-speed server's capacity
 * (0.35 = 35%); stacked traces used for the high-activity mixes may exceed
 * 1.0, representing demand one machine cannot serve at any P-state.
 */

#ifndef NPS_TRACE_TRACE_H
#define NPS_TRACE_TRACE_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace nps {
namespace trace {

/** Workload families observed across the nine enterprise sites. */
enum class WorkloadClass
{
    WebServer,
    Database,
    ECommerce,
    RemoteDesktop,
    Batch,
    FileServer,
};

/** @return a short human-readable name for a workload class. */
const char *workloadClassName(WorkloadClass wc);

/** Number of distinct workload classes. */
inline constexpr size_t kNumWorkloadClasses = 6;

/**
 * One server's demand series plus its provenance metadata.
 *
 * The samples are immutable and shared: copying a trace (a Cluster
 * copies every workload into its VMs) copies a pointer, not the series.
 */
class UtilizationTrace
{
  public:
    /** Construct an empty, unnamed trace. */
    UtilizationTrace();

    /**
     * @param name    Trace identifier (e.g. "site3/srv07-web").
     * @param wc      Workload family of the traced server.
     * @param samples Per-tick demand, each >= 0.
     */
    UtilizationTrace(std::string name, WorkloadClass wc,
                     std::vector<double> samples);

    UtilizationTrace(const UtilizationTrace &) = default;
    UtilizationTrace &operator=(const UtilizationTrace &) = default;

    /** Moves leave @p other an empty trace (at() panics, as before). */
    UtilizationTrace(UtilizationTrace &&other) noexcept;
    UtilizationTrace &operator=(UtilizationTrace &&other) noexcept;

    /** @return trace identifier. */
    const std::string &name() const { return name_; }

    /** @return the workload family. */
    WorkloadClass workloadClass() const { return class_; }

    /** @return number of samples. */
    size_t length() const { return size_; }

    /** @return true when the trace holds no samples. */
    bool empty() const { return size_ == 0; }

    /**
     * Demand at @p tick; ticks beyond the end wrap around so simulations
     * may run longer than the recorded trace. @pre !empty()
     */
    double
    at(size_t tick) const
    {
        if (size_ == 0)
            emptyPanic();
        return data_[tick % size_];
    }

    /** Raw sample vector. */
    const std::vector<double> &samples() const { return *samples_; }

    /** Mean demand over the whole trace (0 when empty). */
    double mean() const;

    /** Largest demand sample (0 when empty). */
    double peak() const;

    /**
     * @return a copy with every sample multiplied by @p factor (demand
     * stays clamped at 0 from below). @pre factor >= 0
     */
    UtilizationTrace scaled(double factor) const;

    /**
     * Sum a set of traces sample-by-sample, producing the "stacked"
     * synthetic high-utilization workloads of Section 4.3 (60HH stacks
     * two real traces, 60HHH three). The result has the length of the
     * longest input; shorter inputs wrap. @pre at least one input.
     */
    static UtilizationTrace stack(const std::vector<UtilizationTrace> &parts,
                                  const std::string &name);

  private:
    [[noreturn]] static void emptyPanic();

    std::string name_;
    WorkloadClass class_ = WorkloadClass::WebServer;
    /** The shared series; never null (empty traces share one). */
    std::shared_ptr<const std::vector<double>> samples_;
    /** samples_->data() and size(), cached so at() is one load. */
    const double *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace trace
} // namespace nps

#endif // NPS_TRACE_TRACE_H
