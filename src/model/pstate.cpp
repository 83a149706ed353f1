#include "model/pstate.h"

#include <cmath>

#include "util/logging.h"

namespace nps {
namespace model {

void
PState::utilOutOfRange(double util)
{
    util::panic("PState::powerAt(%f): utilization out of [0,1]", util);
}

PStateTable::PStateTable(std::vector<PState> states)
    : states_(std::move(states))
{
    if (states_.empty())
        util::fatal("PStateTable: empty state list");
    for (size_t i = 1; i < states_.size(); ++i) {
        if (states_[i].freq_mhz >= states_[i - 1].freq_mhz) {
            util::fatal("PStateTable: frequencies must strictly decrease "
                        "(state %zu: %f >= state %zu: %f)",
                        i, states_[i].freq_mhz, i - 1,
                        states_[i - 1].freq_mhz);
        }
        if (states_[i].peakPower() > states_[i - 1].peakPower()) {
            util::fatal("PStateTable: peak power must not increase with "
                        "state index (state %zu)", i);
        }
        if (states_[i].idle_watts > states_[i - 1].idle_watts) {
            util::fatal("PStateTable: idle power must not increase with "
                        "state index (state %zu)", i);
        }
    }
    for (const auto &s : states_) {
        if (s.freq_mhz <= 0.0 || s.idle_watts < 0.0 || s.dyn_watts < 0.0)
            util::fatal("PStateTable: invalid state parameters");
    }
}

void
PStateTable::outOfRange(size_t index)
{
    util::panic("PStateTable::at(%zu): out of range", index);
}

size_t
PStateTable::quantizeNearest(double freq_mhz) const
{
    size_t best = 0;
    double best_dist = std::fabs(states_[0].freq_mhz - freq_mhz);
    for (size_t i = 1; i < states_.size(); ++i) {
        double dist = std::fabs(states_[i].freq_mhz - freq_mhz);
        if (dist < best_dist) {
            best = i;
            best_dist = dist;
        }
    }
    return best;
}

PStateTable
PStateTable::subset(const std::vector<size_t> &indices) const
{
    if (indices.empty())
        util::fatal("PStateTable::subset: empty index list");
    std::vector<PState> chosen;
    size_t prev = 0;
    bool first = true;
    for (size_t idx : indices) {
        if (idx >= states_.size())
            util::fatal("PStateTable::subset: index %zu out of range", idx);
        if (!first && idx <= prev)
            util::fatal("PStateTable::subset: indices must increase");
        chosen.push_back(states_[idx]);
        prev = idx;
        first = false;
    }
    return PStateTable(std::move(chosen));
}

PStateTable
PStateTable::extremesOnly() const
{
    if (states_.size() <= 2)
        return *this;
    return subset({0, states_.size() - 1});
}

} // namespace model
} // namespace nps
