#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace nps {
namespace trace {

const char *
workloadClassName(WorkloadClass wc)
{
    switch (wc) {
      case WorkloadClass::WebServer:     return "web";
      case WorkloadClass::Database:      return "db";
      case WorkloadClass::ECommerce:     return "ecom";
      case WorkloadClass::RemoteDesktop: return "rdesk";
      case WorkloadClass::Batch:         return "batch";
      case WorkloadClass::FileServer:    return "file";
    }
    return "?";
}

namespace {

const std::shared_ptr<const std::vector<double>> &
emptySamples()
{
    static const auto empty = std::make_shared<const std::vector<double>>();
    return empty;
}

} // namespace

UtilizationTrace::UtilizationTrace() : samples_(emptySamples()) {}

UtilizationTrace::UtilizationTrace(std::string name, WorkloadClass wc,
                                   std::vector<double> samples)
    : name_(std::move(name)), class_(wc),
      samples_(std::make_shared<const std::vector<double>>(
          std::move(samples))),
      data_(samples_->data()), size_(samples_->size())
{
    for (double s : *samples_) {
        if (!std::isfinite(s))
            util::fatal("UtilizationTrace %s: non-finite demand sample",
                        name_.c_str());
        if (s < 0.0)
            util::fatal("UtilizationTrace %s: negative demand sample",
                        name_.c_str());
    }
}

UtilizationTrace::UtilizationTrace(UtilizationTrace &&other) noexcept
    : name_(std::move(other.name_)), class_(other.class_),
      samples_(std::exchange(other.samples_, emptySamples())),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0))
{
}

UtilizationTrace &
UtilizationTrace::operator=(UtilizationTrace &&other) noexcept
{
    if (this != &other) {
        name_ = std::move(other.name_);
        class_ = other.class_;
        samples_ = std::exchange(other.samples_, emptySamples());
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
    }
    return *this;
}

void
UtilizationTrace::emptyPanic()
{
    util::panic("UtilizationTrace::at on empty trace");
}

double
UtilizationTrace::mean() const
{
    if (empty())
        return 0.0;
    double sum = 0.0;
    for (double s : *samples_)
        sum += s;
    return sum / static_cast<double>(size_);
}

double
UtilizationTrace::peak() const
{
    if (empty())
        return 0.0;
    return *std::max_element(samples_->begin(), samples_->end());
}

UtilizationTrace
UtilizationTrace::scaled(double factor) const
{
    if (factor < 0.0)
        util::fatal("UtilizationTrace::scaled: negative factor");
    std::vector<double> out(*samples_);
    for (double &s : out)
        s *= factor;
    return UtilizationTrace(name_ + "-x" + std::to_string(factor), class_,
                            std::move(out));
}

UtilizationTrace
UtilizationTrace::stack(const std::vector<UtilizationTrace> &parts,
                        const std::string &name)
{
    if (parts.empty())
        util::fatal("UtilizationTrace::stack: no inputs");
    size_t len = 0;
    for (const auto &p : parts) {
        if (p.empty())
            util::fatal("UtilizationTrace::stack: empty input %s",
                        p.name().c_str());
        len = std::max(len, p.length());
    }
    std::vector<double> out(len, 0.0);
    for (const auto &p : parts) {
        for (size_t t = 0; t < len; ++t)
            out[t] += p.at(t);
    }
    return UtilizationTrace(name, parts.front().workloadClass(),
                            std::move(out));
}

} // namespace trace
} // namespace nps
