#include "obs/profiler.h"

#include <algorithm>

#include "util/json.h"
#include "util/table.h"

namespace nps {
namespace obs {

namespace {

double
ms(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

const char *
kindName(const EngineProfiler::ActorInfo &info)
{
    return info.kernel ? "kernel" : "global";
}

} // namespace

void
EngineProfiler::setSchedule(std::vector<ActorInfo> actors, unsigned threads)
{
    threads_ = threads;
    bool same = actors.size() == actors_.size();
    for (size_t i = 0; same && i < actors.size(); ++i) {
        same = actors[i].name == actors_[i].info.name &&
               actors[i].kernel == actors_[i].info.kernel;
    }
    if (same) {
        // Same actors, possibly more workers: keep every lane's totals.
        if (lanes_.size() < threads)
            lanes_.resize(threads, std::vector<Lane>(actors_.size()));
        return;
    }
    actors_.clear();
    actors_.resize(actors.size());
    for (size_t i = 0; i < actors.size(); ++i)
        actors_[i].info = std::move(actors[i]);
    lanes_.assign(std::max(1u, threads),
                  std::vector<Lane>(actors_.size()));
    evaluate_ns_ = 0;
    record_ns_ = 0;
    ticks_ = 0;
    wall_ns_ = 0;
}

const std::vector<EngineProfiler::ActorStats> &
EngineProfiler::actorStats() const
{
    for (size_t i = 0; i < actors_.size(); ++i) {
        ActorStats &a = actors_[i];
        a.observe_calls = a.observe_ns = a.step_calls = a.step_ns = 0;
        a.slot = 0;
        for (size_t slot = 0; slot < lanes_.size(); ++slot) {
            const Lane &l = lanes_[slot][i];
            a.observe_calls += l.observe_calls;
            a.observe_ns += l.observe_ns;
            a.step_calls += l.step_calls;
            a.step_ns += l.step_ns;
            if (l.observe_calls + l.step_calls > 0)
                a.slot = static_cast<unsigned>(slot);
        }
    }
    return actors_;
}

void
EngineProfiler::addPhase(EnginePhase phase, std::uint64_t ns)
{
    switch (phase) {
      case EnginePhase::Evaluate: evaluate_ns_ += ns; break;
      case EnginePhase::Record:   record_ns_ += ns; break;
    }
}

std::uint64_t
EngineProfiler::phaseNs(EnginePhase phase) const
{
    switch (phase) {
      case EnginePhase::Evaluate: return evaluate_ns_;
      case EnginePhase::Record:   return record_ns_;
    }
    return 0;
}

void
EngineProfiler::writeTable(std::ostream &out) const
{
    std::vector<const ActorStats *> order;
    order.reserve(actors_.size());
    for (const auto &a : actorStats())
        order.push_back(&a);
    std::sort(order.begin(), order.end(),
              [](const ActorStats *a, const ActorStats *b) {
                  std::uint64_t ta = a->observe_ns + a->step_ns;
                  std::uint64_t tb = b->observe_ns + b->step_ns;
                  if (ta != tb)
                      return ta > tb;
                  return a->info.name < b->info.name;
              });

    util::Table t("Engine profile: " + std::to_string(ticks_) +
                  " ticks, " + std::to_string(threads_) + " thread(s), " +
                  util::Table::num(ms(wall_ns_), 1) + " ms wall");
    t.header({"actor", "kind", "slot", "observe#", "observe ms",
              "step#", "step ms", "total ms", "% wall"});
    for (const ActorStats *a : order) {
        std::uint64_t total = a->observe_ns + a->step_ns;
        double frac = wall_ns_ > 0
                          ? static_cast<double>(total) /
                                static_cast<double>(wall_ns_)
                          : 0.0;
        t.row({a->info.name, kindName(a->info),
               std::to_string(a->slot),
               std::to_string(a->observe_calls),
               util::Table::num(ms(a->observe_ns), 3),
               std::to_string(a->step_calls),
               util::Table::num(ms(a->step_ns), 3),
               util::Table::num(ms(total), 3), util::Table::pct(frac)});
    }
    t.separator();
    double eval_frac = wall_ns_ > 0 ? static_cast<double>(evaluate_ns_) /
                                          static_cast<double>(wall_ns_)
                                    : 0.0;
    double rec_frac = wall_ns_ > 0 ? static_cast<double>(record_ns_) /
                                         static_cast<double>(wall_ns_)
                                   : 0.0;
    t.row({"(cluster evaluate)", "-", "-", "-", "-", "-", "-",
           util::Table::num(ms(evaluate_ns_), 3),
           util::Table::pct(eval_frac)});
    t.row({"(metrics record)", "-", "-", "-", "-", "-", "-",
           util::Table::num(ms(record_ns_), 3), util::Table::pct(rec_frac)});
    t.print(out);
    if (ticks_ > 0 && wall_ns_ > 0) {
        double tps = static_cast<double>(ticks_) /
                     (static_cast<double>(wall_ns_) / 1e9);
        out << "ticks/sec: " << util::Table::num(tps, 1) << "\n";
    }
}

void
EngineProfiler::writeJson(std::ostream &out) const
{
    double tps = wall_ns_ > 0 ? static_cast<double>(ticks_) /
                                    (static_cast<double>(wall_ns_) / 1e9)
                              : 0.0;
    out << "{\n";
    out << "  \"ticks\": " << ticks_ << ",\n";
    out << "  \"threads\": " << threads_ << ",\n";
    out << "  \"wall_ns\": " << wall_ns_ << ",\n";
    out << "  \"ticks_per_sec\": " << util::jsonNumber(tps) << ",\n";
    out << "  \"phases\": {\"evaluate_ns\": " << evaluate_ns_
        << ", \"record_ns\": " << record_ns_ << "},\n";
    out << "  \"actors\": [\n";
    actorStats();
    for (size_t i = 0; i < actors_.size(); ++i) {
        const ActorStats &a = actors_[i];
        out << "    {\"name\": " << util::jsonQuote(a.info.name)
            << ", \"kind\": \"" << kindName(a.info) << '"'
            << ", \"slot\": " << a.slot
            << ", \"observe_calls\": " << a.observe_calls
            << ", \"observe_ns\": " << a.observe_ns
            << ", \"step_calls\": " << a.step_calls
            << ", \"step_ns\": " << a.step_ns << '}'
            << (i + 1 < actors_.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
}

} // namespace obs
} // namespace nps
