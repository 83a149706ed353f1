/**
 * @file
 * P-state (ACPI performance state) definitions.
 *
 * A P-state couples a clock frequency with a calibrated linear power model
 * and a linear performance model, following the paper's "Models" equations:
 *
 *     pow  = g_p(r) = c_p * r + d_p        (watts, r = utilization in [0,1])
 *     perf = h_p(r) = a_p * r              (fraction of max machine work)
 *
 * where p indexes the P-state, c_p is the dynamic power slope, d_p the idle
 * power, and a_p = f_p / f_0 the relative throughput of the state.
 */

#ifndef NPS_MODEL_PSTATE_H
#define NPS_MODEL_PSTATE_H

#include <cstddef>
#include <string>
#include <vector>

namespace nps {
namespace model {

/** One ACPI performance state with its calibrated linear models. */
struct PState
{
    /** Clock frequency in MHz. P0 has the highest frequency. */
    double freq_mhz = 0.0;

    /** Dynamic power slope c_p in watts per unit utilization. */
    double dyn_watts = 0.0;

    /** Idle power d_p in watts (power at zero utilization). */
    double idle_watts = 0.0;

    /**
     * Power at utilization @p util in [0,1]: c_p * util + d_p. Panics
     * outside [0,1]. Inline: the plant kernel calls it once per server
     * per tick (sim/server.h, serveTick).
     */
    double
    powerAt(double util) const
    {
        if (util < 0.0 || util > 1.0)
            utilOutOfRange(util);
        return dyn_watts * util + idle_watts;
    }

    /** Peak power of this state (utilization 1). */
    double peakPower() const { return dyn_watts + idle_watts; }

  private:
    [[noreturn]] static void utilOutOfRange(double util);
};

/**
 * Ordered set of P-states for one processor: index 0 is P0 (highest
 * frequency); indices increase as frequency decreases.
 *
 * Maintains the monotonicity invariants the controllers rely on: strictly
 * decreasing frequency and non-increasing power envelope across states.
 */
class PStateTable
{
  public:
    /**
     * Build from a list of states.
     * Calls fatal() if the list is empty, frequencies are not strictly
     * decreasing, or any state's peak power exceeds that of a faster state
     * (which would break controller monotonicity assumptions).
     */
    explicit PStateTable(std::vector<PState> states);

    /** @return number of P-states. */
    size_t size() const { return states_.size(); }

    /** @return the state at @p index. @pre index < size() (panics) */
    const PState &
    at(size_t index) const
    {
        if (index >= states_.size())
            outOfRange(index);
        return states_[index];
    }

    /** @return P0, the highest-frequency state. */
    const PState &fastest() const { return states_.front(); }

    /** @return the lowest-frequency state. */
    const PState &slowest() const { return states_.back(); }

    /** Index of the lowest-frequency state. */
    size_t slowestIndex() const { return states_.size() - 1; }

    /**
     * Quantize a desired continuous frequency (MHz) to a P-state index.
     * Picks the slowest state whose frequency still covers @p freq_mhz
     * (i.e., rounds capacity up so demand can still be served); clamps to
     * the table's range.
     */
    size_t
    quantizeUp(double freq_mhz) const
    {
        // States are sorted by decreasing frequency; find the slowest
        // state that still provides at least freq_mhz.
        size_t chosen = 0;
        for (size_t i = 0; i < states_.size(); ++i) {
            if (states_[i].freq_mhz >= freq_mhz)
                chosen = i;
            else
                break;
        }
        return chosen;
    }

    /** Quantize to the state with the nearest frequency. */
    size_t quantizeNearest(double freq_mhz) const;

    /** Relative throughput a_p = f_p / f_0 of state @p index. */
    double
    relSpeed(size_t index) const
    {
        return at(index).freq_mhz / fastest().freq_mhz;
    }

    /**
     * @return a reduced table containing only the states at the given
     * indices (used by the Section 5.3 "number of P-states" study).
     * Indices must be valid and strictly increasing.
     */
    PStateTable subset(const std::vector<size_t> &indices) const;

    /**
     * @return a two-state table with only the extreme states (P0 and the
     * slowest), the simplified design Section 5.3 advocates.
     */
    PStateTable extremesOnly() const;

  private:
    [[noreturn]] static void outOfRange(size_t index);

    std::vector<PState> states_;
};

} // namespace model
} // namespace nps

#endif // NPS_MODEL_PSTATE_H
