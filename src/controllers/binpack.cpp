#include "controllers/binpack.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace nps {
namespace controllers {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Server id -> bin index. Cluster server ids are dense (0..N-1), so a
 * flat table indexed by id serves them; sparse ids fall back to a hash
 * map. A repeated id maps to its last bin.
 */
class BinLookup
{
  public:
    explicit BinLookup(const std::vector<PackBin> &bins) : n_(bins.size())
    {
        sim::ServerId max_id = 0;
        for (const auto &b : bins)
            max_id = std::max(max_id, b.id);
        if (max_id < 2 * n_ + 64)
            dense_.assign(static_cast<size_t>(max_id) + 1, n_);
        for (size_t b = 0; b < n_; ++b) {
            sim::ServerId id = bins[b].id;
            size_t &slot = dense_.empty()
                               ? sparse_.try_emplace(id, n_).first->second
                               : dense_[id];
            if (slot != n_ && !has_duplicate_) {
                has_duplicate_ = true;
                duplicate_ = id;
            }
            slot = b;
        }
    }

    /** Bin index of server @p id, or the bin count when absent. */
    size_t
    find(sim::ServerId id) const
    {
        if (!dense_.empty())
            return id < dense_.size() ? dense_[id] : n_;
        auto it = sparse_.find(id);
        return it == sparse_.end() ? n_ : it->second;
    }

    /** True when some id names two bins; duplicate() is the first. */
    bool hasDuplicate() const { return has_duplicate_; }
    sim::ServerId duplicate() const { return duplicate_; }

  private:
    size_t n_;
    std::vector<size_t> dense_;
    std::unordered_map<sim::ServerId, size_t> sparse_;
    bool has_duplicate_ = false;
    sim::ServerId duplicate_ = 0;
};

} // namespace

double
estimateBinPower(const PackBin &bin, double load)
{
    if (!bin.power)
        util::panic("estimateBinPower: bin %u has no model", bin.id);
    if (load <= 0.0)
        return bin.unused_watts;
    size_t state = bin.power->bestStateForDemand(load, bin.util_limit);
    return bin.power->powerForDemand(state, load);
}

double
maxPackedLoad(const PackBin &bin)
{
    auto passes = [&bin](double load) {
        return !(load > bin.capacity + 1e-12) &&
               !(estimateBinPower(bin, load) > bin.power_cap + 1e-12);
    };
    // Positive doubles order like their bit patterns. Invariant: `lo`
    // passes (0 stands for "no positive load does"), `hi` fails (one
    // past +infinity stands for "every load passes").
    uint64_t lo = 0;
    uint64_t hi = std::bit_cast<uint64_t>(kInf) + 1;
    // The capacity check alone bounds the answer; when the power cap
    // does not bind, that bound is the answer.
    double cap_bound = bin.capacity + 1e-12;
    if (cap_bound <= 0.0)
        return 0.0;
    if (cap_bound < kInf) {
        if (passes(cap_bound))
            return cap_bound;
        hi = std::bit_cast<uint64_t>(cap_bound);
    }
    while (hi - lo > 1) {
        uint64_t mid = lo + (hi - lo) / 2;
        if (passes(std::bit_cast<double>(mid)))
            lo = mid;
        else
            hi = mid;
    }
    return std::bit_cast<double>(lo);
}

AssignmentEval
evaluateAssignment(const std::vector<PackItem> &items,
                   const std::vector<PackBin> &bins,
                   const std::vector<sim::ServerId> &assignment,
                   const PackConstraints &constraints)
{
    if (assignment.size() != items.size())
        util::panic("evaluateAssignment: assignment size mismatch");

    BinLookup bin_index(bins);
    std::vector<double> load(bins.size(), 0.0);
    for (size_t i = 0; i < items.size(); ++i) {
        size_t b = bin_index.find(assignment[i]);
        if (b < bins.size())
            load[b] += items[i].load;
    }

    AssignmentEval eval;
    size_t num_enc = 0;
    for (const auto &b : bins) {
        if (b.enclosure != std::numeric_limits<unsigned>::max())
            num_enc = std::max(num_enc,
                               static_cast<size_t>(b.enclosure) + 1);
    }
    std::vector<double> enc_power(num_enc, 0.0);
    for (size_t b = 0; b < bins.size(); ++b) {
        double p = estimateBinPower(bins[b], load[b]);
        eval.est_power += p;
        if (load[b] > bins[b].capacity + 1e-12 ||
            p > bins[b].power_cap + 1e-12) {
            eval.feasible = false;
        }
        if (bins[b].enclosure != std::numeric_limits<unsigned>::max())
            enc_power[bins[b].enclosure] += p;
    }
    for (size_t e = 0;
         e < enc_power.size() && e < constraints.enclosure_caps.size();
         ++e) {
        if (enc_power[e] > constraints.enclosure_caps[e] + 1e-12)
            eval.feasible = false;
    }
    if (eval.est_power > constraints.group_cap + 1e-12)
        eval.feasible = false;
    return eval;
}

double
estimateAssignmentPower(const std::vector<PackItem> &items,
                        const std::vector<PackBin> &bins,
                        const std::vector<sim::ServerId> &assignment)
{
    return evaluateAssignment(items, bins, assignment, PackConstraints{})
        .est_power;
}

namespace {

/** Mutable packing state of one bin. */
struct BinState
{
    double load = 0.0;
    double power = 0.0;  //!< current estimate at `load` (or unused_watts)
    bool open = false;
};

/** Incremental feasibility/bookkeeping for the hierarchical caps. */
class CapLedger
{
  public:
    CapLedger(const std::vector<PackBin> &bins,
              const PackConstraints &constraints)
        : bins_(bins), constraints_(constraints)
    {
        size_t max_enc = 0;
        for (const auto &b : bins) {
            if (b.enclosure != kNoEnc)
                max_enc = std::max(max_enc,
                                   static_cast<size_t>(b.enclosure) + 1);
        }
        enc_power_.assign(
            std::max(max_enc, constraints.enclosure_caps.size()), 0.0);
        for (const auto &b : bins) {
            group_power_ += b.unused_watts;
            if (b.enclosure != kNoEnc)
                enc_power_[b.enclosure] += b.unused_watts;
        }
    }

    /** Would raising bin @p b's power by @p delta violate any cap? */
    bool
    fits(size_t b, double delta) const
    {
        const PackBin &bin = bins_[b];
        if (group_power_ + delta > constraints_.group_cap)
            return false;
        if (bin.enclosure != kNoEnc &&
            bin.enclosure < constraints_.enclosure_caps.size() &&
            enc_power_[bin.enclosure] + delta >
                constraints_.enclosure_caps[bin.enclosure]) {
            return false;
        }
        return true;
    }

    /** Commit a power delta on bin @p b. */
    void
    apply(size_t b, double delta)
    {
        group_power_ += delta;
        const PackBin &bin = bins_[b];
        if (bin.enclosure != kNoEnc && bin.enclosure < enc_power_.size())
            enc_power_[bin.enclosure] += delta;
    }

    double groupPower() const { return group_power_; }

    static constexpr unsigned kNoEnc =
        std::numeric_limits<unsigned>::max();

  private:
    const std::vector<PackBin> &bins_;
    const PackConstraints &constraints_;
    std::vector<double> enc_power_;
    double group_power_ = 0.0;
};

/**
 * maxPackedLoad per bin, computed when first needed. Bins built alike
 * (same model, capacity, util_limit and power_cap: one per server type
 * in a fleet) share one bisection through a cache of the last few
 * distinct parameter sets.
 */
class LimitMemo
{
  public:
    explicit LimitMemo(const std::vector<PackBin> &bins)
        : bins_(bins), limit_(bins.size(), kUnset)
    {
    }

    double
    operator()(size_t b)
    {
        double &limit = limit_[b];
        if (!std::isnan(limit))
            return limit;
        const PackBin &bin = bins_[b];
        for (size_t k : recent_) {
            const PackBin &o = bins_[k];
            if (o.power == bin.power && o.capacity == bin.capacity &&
                o.util_limit == bin.util_limit &&
                o.power_cap == bin.power_cap) {
                return limit = limit_[k];
            }
        }
        limit = maxPackedLoad(bin);
        if (recent_.size() == kRecent)
            recent_.erase(recent_.begin());
        recent_.push_back(b);
        return limit;
    }

  private:
    static constexpr double kUnset =
        std::numeric_limits<double>::quiet_NaN();
    static constexpr size_t kRecent = 8;

    const std::vector<PackBin> &bins_;
    std::vector<double> limit_;
    std::vector<size_t> recent_;
};

/**
 * Max segment tree over bin index: leftmost index at or after a position
 * whose value reaches a threshold, in O(log n).
 */
class MaxTree
{
  public:
    static constexpr size_t npos = static_cast<size_t>(-1);

    explicit MaxTree(size_t n)
        : n_(n), size_(std::bit_ceil(std::max<size_t>(n, 1)))
    {
        v_.assign(2 * size_, -kInf);
    }

    void
    set(size_t i, double value)
    {
        i += size_;
        v_[i] = value;
        for (i >>= 1; i > 0; i >>= 1)
            v_[i] = std::max(v_[2 * i], v_[2 * i + 1]);
    }

    /** Leftmost i >= @p from with value >= @p threshold, or npos. */
    size_t
    firstAtLeast(size_t from, double threshold) const
    {
        if (from >= n_)
            return npos;
        // Visit the maximal subtrees right of `from` in index order; the
        // first that reaches the threshold holds the answer.
        size_t i = from + size_;
        while (v_[i] < threshold) {
            while (i & 1)
                i >>= 1;
            if (i == 0)
                return npos;
            ++i;
        }
        while (i < size_)
            i = v_[2 * i] >= threshold ? 2 * i : 2 * i + 1;
        return i - size_;
    }

  private:
    size_t n_;
    size_t size_;
    std::vector<double> v_;
};

} // namespace

PackResult
packGreedy(std::vector<PackItem> items, const std::vector<PackBin> &bins,
           const PackConstraints &constraints)
{
    PackResult result;
    result.assignment.assign(items.size(), sim::kNoServer);
    const size_t n = bins.size();

    BinLookup bin_index(bins);
    if (bin_index.hasDuplicate())
        util::fatal("packGreedy: duplicate bin id %u",
                    bin_index.duplicate());
    // The indexes below order bins by room and headroom, which needs
    // finite, non-negative loads and capacities that are not NaN.
    for (const auto &item : items) {
        if (!(item.load >= 0.0 && item.load < kInf))
            util::panic("packGreedy: VM %u has load %g", item.vm, item.load);
    }
    for (const auto &bin : bins) {
        if (std::isnan(bin.capacity))
            util::panic("packGreedy: bin %u has a NaN capacity", bin.id);
    }

    // Keep the original item order for the output; sort an index view by
    // descending load (first-fit-decreasing processing order).
    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return items[a].load > items[b].load;
    });

    std::vector<BinState> state(n);
    for (size_t b = 0; b < n; ++b)
        state[b].power = bins[b].unused_watts;
    CapLedger ledger(bins, constraints);

    // Bins eligible to be opened, cheapest boot first: on servers in id
    // order, then off servers.
    std::vector<size_t> open_order;
    for (size_t b = 0; b < n; ++b) {
        if (bins[b].on)
            open_order.push_back(b);
    }
    for (size_t b = 0; b < n; ++b) {
        if (!bins[b].on)
            open_order.push_back(b);
    }
    size_t next_closed = 0; //!< open_order[..next_closed) are all open

    // The indexes over open bins (binpack.h).
    LimitMemo limit(bins);
    std::set<std::pair<double, size_t>> by_room; //!< (capacity - load, b)
    MaxTree headroom(n);                           //!< limit - load
    // The query margin below covers rounding while ulp(limit) <= 2^-32;
    // bins with larger limits stay candidates for every item.
    constexpr double kMaxExactLimit = 0x1p20;

    // The one update path: bin state, ledger and both indexes.
    auto commit = [&](size_t b, double new_load, double new_power) {
        BinState &s = state[b];
        if (s.open)
            by_room.erase({bins[b].capacity - s.load, b});
        ledger.apply(b, new_power - s.power);
        s.load = new_load;
        s.power = new_power;
        s.open = true;
        by_room.emplace(bins[b].capacity - s.load, b);
        double l = limit(b);
        headroom.set(b, l < kMaxExactLimit ? l - s.load : kInf);
    };

    // A new load above the bin's limit fails the capacity or the power
    // check, so it is refused before any power estimate. A new load of
    // 0 is never above the limit and gets the full checks.
    auto try_place = [&](size_t item_idx, size_t b) -> bool {
        const PackItem &item = items[item_idx];
        const PackBin &bin = bins[b];
        double new_load = state[b].load + item.load;
        if (new_load > limit(b))
            return false;
        if (new_load > bin.capacity + 1e-12)
            return false;
        double new_power = estimateBinPower(bin, new_load);
        if (new_power > bin.power_cap + 1e-12)
            return false;
        if (!ledger.fits(b, new_power - state[b].power))
            return false;
        commit(b, new_load, new_power);
        result.assignment[item_idx] = bin.id;
        return true;
    };

    // Step 2: the open bin with the least slack >= -1e-12, lowest index
    // on ties.
    auto best_fit = [&](double x) {
        // slack = room - x never falls as room rises, so the bins it
        // admits are a suffix of by_room. No room below x - 1e-9 is
        // admitted for any x >= 0; the walk skips the few above it that
        // are not.
        auto it = by_room.lower_bound({x - 1e-9, 0});
        while (it != by_room.end() && it->first - x < -1e-12)
            ++it;
        if (it == by_room.end())
            return n;
        // The lowest index among equal least slack: the first entry of
        // each room value, over the rooms whose slack rounds equal.
        const double slack = it->first - x;
        size_t best = it->second;
        auto next_room = [&](auto pos) {
            return by_room.upper_bound({pos->first, n});
        };
        for (it = next_room(it);
             it != by_room.end() && it->first - x == slack;
             it = next_room(it)) {
            best = std::min(best, it->second);
        }
        return best;
    };

    for (size_t item_idx : order) {
        const PackItem &item = items[item_idx];

        // 1. Prefer the current host when it is already open (keeps the
        //    migration count down without blocking consolidation).
        size_t cur_bin = bin_index.find(item.current);
        if (cur_bin < n && state[cur_bin].open &&
            try_place(item_idx, cur_bin)) {
            continue;
        }

        // 2. Best fit among open bins: tightest remaining capacity that
        //    still fits.
        size_t best = best_fit(item.load);
        if (best < n && try_place(item_idx, best))
            continue;

        // The tightest bin may fail the power caps: first fit over the
        // rest. The headroom tree offers, in index order, every open bin
        // whose capacity and power checks pass and (up to its rounding
        // margin) no bin they refuse at a positive load, so nearly every
        // try it wastes is a ledger refusal.
        bool placed = false;
        const double need = item.load - 1e-9;
        for (size_t b = headroom.firstAtLeast(0, need);
             b != MaxTree::npos && !placed;
             b = headroom.firstAtLeast(b + 1, need)) {
            if (b != best)
                placed = try_place(item_idx, b);
        }
        if (placed)
            continue;

        // 3. Open a new bin: the current host first, then on servers,
        //    then off servers.
        if (cur_bin < n && !state[cur_bin].open &&
            try_place(item_idx, cur_bin)) {
            continue;
        }
        while (next_closed < open_order.size() &&
               state[open_order[next_closed]].open) {
            ++next_closed;
        }
        for (size_t k = next_closed; k < open_order.size(); ++k) {
            size_t b = open_order[k];
            if (!state[b].open && b != cur_bin &&
                try_place(item_idx, b)) {
                placed = true;
                break;
            }
        }
        if (placed)
            continue;

        // 4. Nothing satisfies the constraints: leave the VM where it is
        //    and mark the solution infeasible (the VMC will then keep the
        //    current placement or act on the buffers next epoch).
        result.feasible = false;
        result.assignment[item_idx] = item.current;
        if (cur_bin < n) {
            double new_load = state[cur_bin].load + item.load;
            commit(cur_bin, new_load,
                   estimateBinPower(bins[cur_bin], new_load));
        }
    }

    result.est_power = ledger.groupPower();
    for (const auto &s : state)
        result.bins_used += s.open ? 1 : 0;
    return result;
}

} // namespace controllers
} // namespace nps
