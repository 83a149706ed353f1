/**
 * @file
 * Randomized property tests for the bin-packing optimizer: over many
 * random instances, the safety invariants must hold unconditionally —
 * every item assigned (or the result flagged infeasible), no capacity
 * or power cap exceeded by the placements the packer claims feasible,
 * and the estimator consistent with the per-bin model. The indexed
 * packer must also place every item exactly where the linear-scan
 * packer it replaced would (kept below as the oracle), and the
 * per-bin load limit its indexes rest on must be the exact boundary of
 * a monotone check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "controllers/binpack.h"
#include "model/machine.h"
#include "util/random.h"

namespace {

using namespace nps::controllers;
using nps::model::PowerModel;
using nps::util::Rng;

constexpr unsigned kNoEnc = std::numeric_limits<unsigned>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Instance
{
    std::vector<PackBin> bins;
    std::vector<PackItem> items;
    PackConstraints constraints;
};

Instance
randomInstance(Rng &rng, const PowerModel &blade, const PowerModel &server)
{
    Instance inst;
    size_t n_bins = 2 + rng.below(40);
    size_t n_enc = 1 + rng.below(4);
    bool use_caps = rng.bernoulli(0.7);

    for (unsigned b = 0; b < n_bins; ++b) {
        PackBin bin;
        bin.id = b;
        bin.power = rng.bernoulli(0.5) ? &blade : &server;
        bin.enclosure = rng.bernoulli(0.6)
                            ? static_cast<unsigned>(rng.below(n_enc))
                            : kNoEnc;
        bin.on = rng.bernoulli(0.8);
        bin.capacity = rng.uniform(0.4, 1.0);
        bin.unused_watts = rng.uniform(1.0, 30.0);
        bin.util_limit = rng.uniform(0.5, 1.0);
        if (use_caps) {
            bin.power_cap = rng.uniform(0.6, 1.1) *
                            bin.power->maxPower();
        }
        inst.bins.push_back(bin);
    }

    size_t n_items = 1 + rng.below(60);
    for (unsigned j = 0; j < n_items; ++j) {
        PackItem item;
        item.vm = j;
        item.load = rng.uniform(0.02, 1.2);
        item.current = rng.bernoulli(0.9)
                           ? static_cast<unsigned>(rng.below(n_bins))
                           : nps::sim::kNoServer;
        inst.items.push_back(item);
    }

    if (use_caps) {
        for (size_t e = 0; e < n_enc; ++e) {
            inst.constraints.enclosure_caps.push_back(
                rng.uniform(100.0, 3000.0));
        }
        if (rng.bernoulli(0.5))
            inst.constraints.group_cap = rng.uniform(500.0, 10000.0);
    }
    return inst;
}

class BinpackFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BinpackFuzz, InvariantsHoldOnRandomInstances)
{
    Rng rng(GetParam(), "binpack-fuzz");
    PowerModel blade(nps::model::bladeA().pstates());
    PowerModel server(nps::model::serverB().pstates());

    for (int round = 0; round < 40; ++round) {
        Instance inst = randomInstance(rng, blade, server);
        PackResult r = packGreedy(inst.items, inst.bins,
                                  inst.constraints);

        ASSERT_EQ(r.assignment.size(), inst.items.size());

        // Aggregate loads/powers per bin from the assignment.
        std::map<unsigned, double> load;
        for (size_t i = 0; i < inst.items.size(); ++i) {
            unsigned dst = r.assignment[i];
            if (dst == nps::sim::kNoServer) {
                // Only legal when the item had no current host and the
                // instance was infeasible for it.
                EXPECT_FALSE(r.feasible);
                EXPECT_EQ(inst.items[i].current, nps::sim::kNoServer);
                continue;
            }
            load[dst] += inst.items[i].load;
        }

        double group = 0.0;
        std::vector<double> enc_power(
            inst.constraints.enclosure_caps.size(), 0.0);
        size_t used = 0;
        for (const auto &bin : inst.bins) {
            auto it = load.find(bin.id);
            double l = it == load.end() ? 0.0 : it->second;
            double p = estimateBinPower(bin, l);
            group += p;
            if (bin.enclosure != kNoEnc &&
                bin.enclosure < enc_power.size()) {
                enc_power[bin.enclosure] += p;
            }
            used += l > 0.0 ? 1 : 0;
            if (r.feasible && l > 0.0) {
                EXPECT_LE(l, bin.capacity + 1e-9);
                EXPECT_LE(p, bin.power_cap + 1e-9);
            }
        }
        EXPECT_EQ(r.bins_used, used);
        EXPECT_NEAR(r.est_power, group, 1e-6);
        if (r.feasible) {
            EXPECT_LE(group, inst.constraints.group_cap + 1e-6);
            for (size_t e = 0; e < enc_power.size(); ++e) {
                EXPECT_LE(enc_power[e],
                          inst.constraints.enclosure_caps[e] + 1e-6);
            }
        }

        // The same-assignment evaluator agrees with the packer.
        auto eval = evaluateAssignment(inst.items, inst.bins,
                                       r.assignment, inst.constraints);
        EXPECT_NEAR(eval.est_power, r.est_power, 1e-6);
        if (r.feasible) {
            EXPECT_TRUE(eval.feasible);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinpackFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// The oracle: the linear-scan packer and evaluator, verbatim
// ---------------------------------------------------------------------

struct RefBinState
{
    double load = 0.0;
    double power = 0.0;
    bool open = false;
};

class RefLedger
{
  public:
    RefLedger(const std::vector<PackBin> &bins,
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

    void
    apply(size_t b, double delta)
    {
        group_power_ += delta;
        const PackBin &bin = bins_[b];
        if (bin.enclosure != kNoEnc && bin.enclosure < enc_power_.size())
            enc_power_[bin.enclosure] += delta;
    }

    double groupPower() const { return group_power_; }

  private:
    const std::vector<PackBin> &bins_;
    const PackConstraints &constraints_;
    std::vector<double> enc_power_;
    double group_power_ = 0.0;
};

/** The O(items x open bins) packer packGreedy replaced. */
PackResult
referencePack(std::vector<PackItem> items, const std::vector<PackBin> &bins,
              const PackConstraints &constraints)
{
    PackResult result;
    result.assignment.assign(items.size(), nps::sim::kNoServer);

    std::map<nps::sim::ServerId, size_t> bin_index;
    for (size_t b = 0; b < bins.size(); ++b)
        bin_index.emplace(bins[b].id, b);

    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return items[a].load > items[b].load;
    });

    std::vector<RefBinState> state(bins.size());
    for (size_t b = 0; b < bins.size(); ++b)
        state[b].power = bins[b].unused_watts;
    RefLedger ledger(bins, constraints);

    std::vector<size_t> open_order;
    for (size_t b = 0; b < bins.size(); ++b) {
        if (bins[b].on)
            open_order.push_back(b);
    }
    for (size_t b = 0; b < bins.size(); ++b) {
        if (!bins[b].on)
            open_order.push_back(b);
    }

    auto try_place = [&](size_t item_idx, size_t b) -> bool {
        const PackItem &item = items[item_idx];
        const PackBin &bin = bins[b];
        double new_load = state[b].load + item.load;
        if (new_load > bin.capacity + 1e-12)
            return false;
        double new_power = estimateBinPower(bin, new_load);
        if (new_power > bin.power_cap + 1e-12)
            return false;
        double delta = new_power - state[b].power;
        if (!ledger.fits(b, delta))
            return false;
        ledger.apply(b, delta);
        state[b].load = new_load;
        state[b].power = new_power;
        state[b].open = true;
        result.assignment[item_idx] = bin.id;
        return true;
    };

    for (size_t item_idx : order) {
        const PackItem &item = items[item_idx];
        auto cur_it = bin_index.find(item.current);
        size_t cur_bin = cur_it != bin_index.end() ? cur_it->second
                                                   : bins.size();
        if (cur_bin < bins.size() && state[cur_bin].open &&
            try_place(item_idx, cur_bin)) {
            continue;
        }
        size_t best = bins.size();
        double best_slack = 0.0;
        for (size_t b = 0; b < bins.size(); ++b) {
            if (!state[b].open)
                continue;
            double slack = bins[b].capacity - state[b].load - item.load;
            if (slack < -1e-12)
                continue;
            if (best == bins.size() || slack < best_slack) {
                best = b;
                best_slack = slack;
            }
        }
        if (best < bins.size() && try_place(item_idx, best))
            continue;
        bool placed = false;
        for (size_t b = 0; b < bins.size() && !placed; ++b) {
            if (state[b].open && b != best)
                placed = try_place(item_idx, b);
        }
        if (placed)
            continue;
        if (cur_bin < bins.size() && !state[cur_bin].open &&
            try_place(item_idx, cur_bin)) {
            continue;
        }
        for (size_t b : open_order) {
            if (!state[b].open && b != cur_bin &&
                try_place(item_idx, b)) {
                placed = true;
                break;
            }
        }
        if (placed)
            continue;
        result.feasible = false;
        result.assignment[item_idx] = item.current;
        if (cur_bin < bins.size()) {
            double new_load = state[cur_bin].load + item.load;
            double new_power = estimateBinPower(bins[cur_bin], new_load);
            ledger.apply(cur_bin, new_power - state[cur_bin].power);
            state[cur_bin].load = new_load;
            state[cur_bin].power = new_power;
            state[cur_bin].open = true;
        }
    }

    result.est_power = ledger.groupPower();
    for (const auto &s : state)
        result.bins_used += s.open ? 1 : 0;
    return result;
}

/** The std::map-keyed evaluator evaluateAssignment replaced. */
AssignmentEval
referenceEvaluate(const std::vector<PackItem> &items,
                  const std::vector<PackBin> &bins,
                  const std::vector<nps::sim::ServerId> &assignment,
                  const PackConstraints &constraints)
{
    std::map<nps::sim::ServerId, size_t> bin_index;
    for (size_t b = 0; b < bins.size(); ++b)
        bin_index[bins[b].id] = b;
    std::vector<double> load(bins.size(), 0.0);
    for (size_t i = 0; i < items.size(); ++i) {
        auto it = bin_index.find(assignment[i]);
        if (it != bin_index.end())
            load[it->second] += items[i].load;
    }
    AssignmentEval eval;
    size_t num_enc = 0;
    for (const auto &b : bins) {
        if (b.enclosure != kNoEnc)
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
        if (bins[b].enclosure != kNoEnc)
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

// ---------------------------------------------------------------------
// Differential instances
// ---------------------------------------------------------------------

/** The P-state tables the differential and monotonicity tests mix. */
struct Models
{
    PowerModel blade{nps::model::bladeA().pstates()};
    PowerModel blade_ext{nps::model::bladeA().pstates().extremesOnly()};
    PowerModel blade_sub{nps::model::bladeA().pstates().subset({0, 2, 4})};
    PowerModel server{nps::model::serverB().pstates()};
    PowerModel server_ext{nps::model::serverB().pstates().extremesOnly()};

    std::vector<const PowerModel *>
    all() const
    {
        return {&blade, &blade_ext, &blade_sub, &server, &server_ext};
    }
};

/** Which constraint binds first in a differential instance. */
enum class Regime
{
    PowerCap,  //!< local caps bind before capacity (the consolidate case)
    Capacity,  //!< no or loose local caps
    Ledger,    //!< tight enclosure and group caps
    Mixed,     //!< all of the above, bin by bin
};

Instance
differentialInstance(Rng &rng, const Models &models, Regime regime,
                     size_t n_bins, size_t n_items)
{
    Instance inst;
    const auto pool = models.all();
    // Few distinct parameter sets (a fleet of server types) or one per
    // bin; ids dense in order, dense shuffled, or sparse.
    const bool few_kinds = rng.bernoulli(0.6);
    const uint64_t id_mode = rng.below(3);
    const size_t enc_size = 2 + rng.below(20);
    const size_t n_enc = (n_bins + enc_size - 1) / enc_size;

    std::vector<unsigned> ids(n_bins);
    for (unsigned b = 0; b < n_bins; ++b)
        ids[b] = id_mode == 2 ? 7 + 1000003u * b : b;
    if (id_mode == 1) {
        for (size_t b = n_bins; b > 1; --b)
            std::swap(ids[b - 1], ids[rng.below(b)]);
    }

    auto cap_frac = [&]() {
        switch (regime) {
          case Regime::PowerCap:
            return rng.uniform(0.55, 0.85);
          case Regime::Capacity:
            return rng.bernoulli(0.5) ? kInf : rng.uniform(1.0, 1.2);
          case Regime::Ledger:
            return rng.bernoulli(0.5) ? kInf : rng.uniform(0.7, 1.1);
          case Regime::Mixed:
            break;
        }
        return rng.bernoulli(0.3) ? kInf : rng.uniform(0.4, 1.1);
    };
    // With few kinds, each parameter comes from a small set on its own,
    // so bins share some fields and differ in others (the three bladeA
    // tables share a peak power, hence their power caps).
    const double kind_caps[] = {0.75, 0.9};
    const double kind_limits[] = {0.75, 0.6};
    const double kind_fracs[] = {cap_frac(), cap_frac()};

    for (unsigned b = 0; b < n_bins; ++b) {
        PackBin bin;
        bin.id = ids[b];
        if (few_kinds) {
            bin.power = pool[rng.below(pool.size())];
            bin.capacity = kind_caps[rng.below(2)];
            bin.util_limit = kind_limits[rng.below(2)];
            double frac = kind_fracs[rng.below(2)];
            bin.power_cap = frac == kInf ? kInf
                                         : frac * bin.power->maxPower();
        } else {
            bin.power = pool[rng.below(pool.size())];
            bin.capacity = rng.uniform(0.4, 1.0);
            bin.util_limit = rng.uniform(0.5, 1.0);
            double frac = cap_frac();
            bin.power_cap = frac == kInf ? kInf
                                         : frac * bin.power->maxPower();
        }
        bin.enclosure = rng.bernoulli(0.85)
                            ? static_cast<unsigned>(b / enc_size)
                            : kNoEnc;
        bin.on = rng.bernoulli(0.75);
        bin.unused_watts =
            rng.bernoulli(0.5)
                ? 2.0
                : bin.power->idlePower(bin.power->pstates().slowestIndex());
        inst.bins.push_back(bin);
    }

    // Loads: a few tied values, zeros, and a continuum.
    const double tied[] = {0.05, 0.1, 0.125, 0.2, 0.3, 0.45};
    for (unsigned j = 0; j < n_items; ++j) {
        PackItem item;
        item.vm = j;
        double u = rng.uniform();
        item.load = u < 0.05   ? 0.0
                    : u < 0.45 ? tied[rng.below(6)]
                               : rng.uniform(0.005, 0.9);
        double c = rng.uniform();
        item.current = c < 0.8    ? ids[rng.below(n_bins)]
                       : c < 0.9  ? nps::sim::kNoServer
                                  : 3u; // unknown unless a bin has id 3
        inst.items.push_back(item);
    }

    // Caps sized from the instance so they bind part of the time.
    const bool ledger_caps =
        regime == Regime::Ledger || (regime == Regime::Mixed &&
                                     rng.bernoulli(0.5));
    if (ledger_caps || rng.bernoulli(0.3)) {
        std::vector<double> enc_max(n_enc, 0.0);
        double total_max = 0.0;
        for (const auto &bin : inst.bins) {
            total_max += bin.power->maxPower();
            if (bin.enclosure != kNoEnc)
                enc_max[bin.enclosure] += bin.power->maxPower();
        }
        double lo = ledger_caps ? 0.25 : 0.6;
        for (size_t e = 0; e < n_enc; ++e) {
            inst.constraints.enclosure_caps.push_back(
                rng.uniform(lo, 0.9) * enc_max[e]);
        }
        if (ledger_caps || rng.bernoulli(0.5)) {
            inst.constraints.group_cap =
                rng.uniform(lo, 0.8) * total_max;
        }
    }
    return inst;
}

void
expectSamePlacement(const Instance &inst, const PackResult &got,
                    const PackResult &want)
{
    ASSERT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.bins_used, want.bins_used);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.est_power),
              std::bit_cast<uint64_t>(want.est_power));

    // The evaluator agrees bit for bit too, on the plan and on the
    // "current" placement the VMC prices against it.
    std::vector<nps::sim::ServerId> current;
    for (const auto &item : inst.items)
        current.push_back(item.current);
    const std::vector<nps::sim::ServerId> *plans[] = {&got.assignment,
                                                      &current};
    for (const auto *assignment : plans) {
        AssignmentEval e = evaluateAssignment(inst.items, inst.bins,
                                              *assignment,
                                              inst.constraints);
        AssignmentEval r = referenceEvaluate(inst.items, inst.bins,
                                             *assignment,
                                             inst.constraints);
        EXPECT_EQ(e.feasible, r.feasible);
        EXPECT_EQ(std::bit_cast<uint64_t>(e.est_power),
                  std::bit_cast<uint64_t>(r.est_power));
    }
}

class BinpackDifferential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BinpackDifferential, IndexedPackerMatchesLinearScans)
{
    Rng rng(GetParam(), "binpack-differential");
    Models models;
    const Regime regimes[] = {Regime::PowerCap, Regime::Capacity,
                              Regime::Ledger, Regime::Mixed};
    for (int round = 0; round < 50; ++round) {
        Regime regime = regimes[round % 4];
        size_t n_bins = 1 + rng.below(rng.bernoulli(0.2) ? 400 : 60);
        size_t n_items = rng.below(2 * n_bins + 10);
        Instance inst =
            differentialInstance(rng, models, regime, n_bins, n_items);
        PackResult got = packGreedy(inst.items, inst.bins,
                                    inst.constraints);
        PackResult want = referencePack(inst.items, inst.bins,
                                        inst.constraints);
        SCOPED_TRACE("round " + std::to_string(round));
        expectSamePlacement(inst, got, want);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinpackDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(BinpackDifferentialLarge, ThousandsOfBinsMatchLinearScans)
{
    // The consolidate regime at fleet-like scale: local caps bind before
    // capacity, once with binding enclosure and group caps.
    Models models;
    const struct
    {
        uint64_t seed;
        Regime regime;
        size_t bins;
    } cases[] = {{101, Regime::PowerCap, 2000},
                 {202, Regime::Ledger, 2400}};
    for (const auto &c : cases) {
        Rng rng(c.seed, "binpack-differential-large");
        Instance inst = differentialInstance(rng, models, c.regime,
                                             c.bins, c.bins * 3 / 2);
        PackResult got = packGreedy(inst.items, inst.bins,
                                    inst.constraints);
        PackResult want = referencePack(inst.items, inst.bins,
                                        inst.constraints);
        expectSamePlacement(inst, got, want);
    }
}

TEST(BinpackDifferentialCorner, EqualSlackFromDifferentRoomsTakesLowestIndex)
{
    // Bins 0 and 1 end up one ulp apart in room (capacity - load), yet
    // the probe item's slack rounds equal on both: the scan keeps the
    // lower index, though bin 1 has the smaller room.
    Models models;
    const double load0 = std::ldexp(1.0, -43) - std::ldexp(1.0, -95);
    const double load1 = std::ldexp(1.0, -43) - std::ldexp(1.0, -96);
    const double probe = std::ldexp(5.0, -96);
    ASSERT_LT(0.0 - load1, 0.0 - load0);
    ASSERT_EQ(0.0 - load0 - probe, 0.0 - load1 - probe);
    ASSERT_GE(0.0 - load0 - probe, -1e-12);

    Instance inst;
    for (unsigned b = 0; b < 2; ++b) {
        PackBin bin;
        bin.id = b;
        bin.power = &models.blade;
        bin.capacity = 0.0;
        bin.power_cap = kInf;
        bin.unused_watts = 0.0;
        bin.enclosure = b == 1 ? 0 : kNoEnc;
        inst.bins.push_back(bin);
    }
    // Bin 1's enclosure cap admits its first item only, so the second
    // opens bin 0.
    ASSERT_GT(estimateBinPower(inst.bins[1], load1 + load0),
              estimateBinPower(inst.bins[1], load1));
    inst.constraints.enclosure_caps = {
        estimateBinPower(inst.bins[1], load1)};
    inst.items = {{0, load1, 1},
                  {1, load0, 0},
                  {2, probe, nps::sim::kNoServer}};

    PackResult want = referencePack(inst.items, inst.bins,
                                    inst.constraints);
    ASSERT_EQ(want.assignment,
              (std::vector<nps::sim::ServerId>{1, 0, 0}));
    expectSamePlacement(inst,
                        packGreedy(inst.items, inst.bins,
                                   inst.constraints),
                        want);
}

TEST(BinpackDifferentialCorner, RoundedHeadroomStillOffersAFittingBin)
{
    // load + probe rounds to within bin 0's limit while limit - load
    // rounds below probe: the first-fit scan takes bin 0, so the
    // headroom query must still offer it (its rounding margin).
    Models models;
    const double cap = 0x1.933ae4e54efabp-1;
    const double load = 0x1.a38a2589943d4p-2;
    const double probe = 0x1.82eba4410e1e1p-2;
    Instance inst;
    for (unsigned b = 0; b < 2; ++b) {
        PackBin bin;
        bin.id = b;
        bin.power = &models.blade;
        bin.capacity = b == 0 ? cap : 0.9;
        bin.power_cap = kInf;
        inst.bins.push_back(bin);
    }
    const double limit = maxPackedLoad(inst.bins[0]);
    ASSERT_LE(load + probe, limit);
    ASSERT_LT(limit - load, probe);
    ASSERT_LT(cap - load - probe, -1e-12); // best fit skips bin 0
    inst.items = {{0, load, 0}, {1, probe, nps::sim::kNoServer}};

    PackResult want = referencePack(inst.items, inst.bins,
                                    inst.constraints);
    ASSERT_EQ(want.assignment, (std::vector<nps::sim::ServerId>{0, 0}));
    expectSamePlacement(inst,
                        packGreedy(inst.items, inst.bins,
                                   inst.constraints),
                        want);
}

TEST(BinpackDifferentialCorner, ZeroLoadsTakeTheBinsTheScansTake)
{
    // Half the items carry no load, and some bins refuse even an empty
    // placement: a capacity at or below 0, or unused_watts above a power
    // cap that small positive loads still meet. Zero loads go through
    // the same indexes as the rest and must land where the scans put
    // them.
    Models models;
    Rng rng(303, "binpack-differential-zero");
    const Regime regimes[] = {Regime::PowerCap, Regime::Capacity,
                              Regime::Ledger, Regime::Mixed};
    for (int round = 0; round < 200; ++round) {
        size_t n_bins = 1 + rng.below(40);
        Instance inst =
            differentialInstance(rng, models, regimes[round % 4], n_bins,
                                 rng.below(2 * n_bins + 10));
        for (auto &item : inst.items) {
            if (rng.bernoulli(0.5))
                item.load = 0.0;
        }
        for (auto &bin : inst.bins) {
            double u = rng.uniform();
            if (u < 0.1)
                bin.capacity = u < 0.05 ? 0.0 : -0.1;
            else if (u < 0.3)
                bin.unused_watts = 1.2 * bin.power->maxPower();
        }
        PackResult got = packGreedy(inst.items, inst.bins,
                                    inst.constraints);
        PackResult want = referencePack(inst.items, inst.bins,
                                        inst.constraints);
        SCOPED_TRACE("round " + std::to_string(round));
        expectSamePlacement(inst, got, want);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(BinpackContract, OutOfContractInputPanics)
{
    Models models;
    PackBin bin;
    bin.id = 0;
    bin.power = &models.blade;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double bad : {-0.1, kInf, nan}) {
        std::vector<PackItem> items = {{0, 0.2, 0}, {1, bad, 0}};
        EXPECT_DEATH(packGreedy(items, {bin}, {}), "VM 1 has load");
    }
    PackBin nan_bin = bin;
    nan_bin.capacity = nan;
    EXPECT_DEATH(packGreedy({{0, 0.2, 0}}, {nan_bin}, {}), "NaN capacity");
}

// ---------------------------------------------------------------------
// The load limit behind the indexes
// ---------------------------------------------------------------------

/** The capacity and local power checks the packer applies. */
bool
passesLocal(const PackBin &bin, double load)
{
    return !(load > bin.capacity + 1e-12) &&
           !(estimateBinPower(bin, load) > bin.power_cap + 1e-12);
}

TEST(BinpackLimit, EstimateNeverFallsAsLoadRises)
{
    Models models;
    Rng rng(42, "binpack-monotone");
    for (const PowerModel *model : models.all()) {
        for (double util_limit : {0.5, 0.6, 0.75, 0.9, 1.0, 1.5}) {
            PackBin bin;
            bin.power = model;
            bin.util_limit = util_limit;
            std::vector<double> loads;
            for (int k = 1; k <= 20000; ++k)
                loads.push_back(k * 1e-4);
            for (int k = 0; k < 2000; ++k)
                loads.push_back(rng.uniform(1e-9, 2.5));
            loads.push_back(std::numeric_limits<double>::denorm_min());
            loads.push_back(kInf);
            std::sort(loads.begin(), loads.end());
            double prev = estimateBinPower(bin, loads.front());
            for (double y : loads) {
                double p = estimateBinPower(bin, y);
                ASSERT_GE(p, prev) << "load " << y << " limit "
                                   << util_limit;
                prev = p;
                // Around each point too, one ulp at a time.
                double up = std::nextafter(y, kInf);
                ASSERT_GE(estimateBinPower(bin, up), p);
            }
        }
    }
}

TEST(BinpackLimit, MaxPackedLoadIsTheExactBoundary)
{
    Models models;
    Rng rng(43, "binpack-limit");
    for (const PowerModel *model : models.all()) {
        for (int k = 0; k < 200; ++k) {
            PackBin bin;
            bin.power = model;
            bin.capacity = k % 7 == 0 ? kInf : rng.uniform(0.3, 1.0);
            bin.util_limit = rng.uniform(0.5, 1.0);
            bin.power_cap = k % 5 == 0 ? kInf
                                       : rng.uniform(0.3, 1.05) *
                                             model->maxPower();
            double limit = maxPackedLoad(bin);
            SCOPED_TRACE(::testing::Message()
                         << "cap " << bin.capacity << " util "
                         << bin.util_limit << " power_cap "
                         << bin.power_cap << " limit " << limit);
            ASSERT_GE(limit, 0.0);
            if (limit == 0.0) {
                EXPECT_FALSE(passesLocal(
                    bin, std::numeric_limits<double>::denorm_min()));
            } else if (limit == kInf) {
                EXPECT_TRUE(passesLocal(bin, kInf));
            } else {
                EXPECT_TRUE(passesLocal(bin, limit));
                EXPECT_FALSE(passesLocal(bin, std::nextafter(limit, kInf)));
                // And monotone below it: a sample of smaller loads pass.
                EXPECT_TRUE(passesLocal(bin, limit * rng.uniform()));
            }
        }
    }
    // The degenerate ends.
    PackBin none;
    none.power = &models.blade;
    none.power_cap = 1.0; // below idle power at every state
    EXPECT_EQ(maxPackedLoad(none), 0.0);
    PackBin all;
    all.power = &models.blade;
    all.capacity = kInf;
    all.util_limit = 1.0;
    EXPECT_EQ(maxPackedLoad(all), kInf);
}

} // namespace
