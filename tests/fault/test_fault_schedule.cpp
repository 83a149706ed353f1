/**
 * @file
 * FaultSchedule: the script grammar, the text round-trip, and the
 * seeded-random campaign generator. The schedule is the ground truth the
 * whole chaos layer stands on, so its parsing and determinism get their
 * own suite.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fault/fault.h"

namespace {

using namespace nps;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultSchedule;
using fault::Level;
using fault::Link;
using fault::RandomFaultConfig;

TEST(FaultSchedule, ParsesEveryClauseKind)
{
    FaultSchedule s = FaultSchedule::parse(
        "outage em 0 100 200\n"
        "drop em-sm 3 50 80 0.5\n"
        "stale gm-em * 10 20\n"
        "stuck 2 5 30\n"
        "noise * 0 40 0.25\n"
        "freeze 1 15 25\n");
    ASSERT_EQ(s.events().size(), 6u);

    const auto &e = s.events();
    EXPECT_EQ(e[0].kind, FaultKind::Outage);
    EXPECT_EQ(e[0].level, Level::EM);
    EXPECT_EQ(e[0].id, 0);
    EXPECT_EQ(e[0].start, 100u);
    EXPECT_EQ(e[0].end, 200u);

    EXPECT_EQ(e[1].kind, FaultKind::DropBudget);
    EXPECT_EQ(e[1].link, Link::EmToSm);
    EXPECT_EQ(e[1].id, 3);
    EXPECT_DOUBLE_EQ(e[1].magnitude, 0.5);

    EXPECT_EQ(e[2].kind, FaultKind::StaleBudget);
    EXPECT_EQ(e[2].link, Link::GmToEm);
    EXPECT_EQ(e[2].id, FaultEvent::kAll);

    EXPECT_EQ(e[3].kind, FaultKind::StuckPState);
    EXPECT_EQ(e[3].id, 2);

    EXPECT_EQ(e[4].kind, FaultKind::UtilNoise);
    EXPECT_EQ(e[4].id, FaultEvent::kAll);
    EXPECT_DOUBLE_EQ(e[4].magnitude, 0.25);

    EXPECT_EQ(e[5].kind, FaultKind::UtilFreeze);
    EXPECT_EQ(e[5].id, 1);
}

TEST(FaultSchedule, AcceptsCommentsSemicolonsAndBlankLines)
{
    FaultSchedule s = FaultSchedule::parse(
        "# a campaign\n"
        "\n"
        "outage gm * 10 20; stuck 0 5 8   # two clauses, trailing note\n"
        "  \n");
    ASSERT_EQ(s.events().size(), 2u);
    EXPECT_EQ(s.events()[0].level, Level::GM);
    EXPECT_EQ(s.events()[1].kind, FaultKind::StuckPState);
}

TEST(FaultSchedule, EmptyTextParsesToEmptySchedule)
{
    EXPECT_TRUE(FaultSchedule::parse("").empty());
    EXPECT_TRUE(FaultSchedule::parse("# only comments\n\n").empty());
    EXPECT_EQ(FaultSchedule().lastEnd(), 0u);
}

TEST(FaultSchedule, TextRoundTripIsExact)
{
    const std::string script =
        "outage ec 4 100 250\n"
        "drop gm-sm * 0 500 0.25\n"
        "stale em-sm 1 40 90\n"
        "stuck * 10 20\n"
        "noise 3 0 1000 0.1\n"
        "freeze * 7 19\n";
    FaultSchedule a = FaultSchedule::parse(script);
    std::string text = a.toText();
    FaultSchedule b = FaultSchedule::parse(text);
    // write -> read -> write must be a fixed point.
    EXPECT_EQ(text, b.toText());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].id, b.events()[i].id);
        EXPECT_EQ(a.events()[i].start, b.events()[i].start);
        EXPECT_EQ(a.events()[i].end, b.events()[i].end);
        EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
    }
}

TEST(FaultSchedule, InlineSeparatorRoundTrips)
{
    FaultSchedule a =
        FaultSchedule::parse("outage sm 1 5 10\nfreeze 2 6 9\n");
    std::string inline_form = a.toText("; ");
    EXPECT_EQ(inline_form.find('\n'), std::string::npos);
    FaultSchedule b = FaultSchedule::parse(inline_form);
    ASSERT_EQ(b.events().size(), 2u);
    EXPECT_EQ(b.toText(), a.toText());
}

TEST(FaultSchedule, ActiveAtIsHalfOpen)
{
    FaultSchedule s = FaultSchedule::parse("outage sm 0 10 20\n");
    const FaultEvent &e = s.events()[0];
    EXPECT_FALSE(e.activeAt(9));
    EXPECT_TRUE(e.activeAt(10));
    EXPECT_TRUE(e.activeAt(19));
    EXPECT_FALSE(e.activeAt(20));
}

TEST(FaultSchedule, LastEndIsCampaignHorizon)
{
    FaultSchedule s = FaultSchedule::parse(
        "outage sm 0 10 20\nstuck 1 5 300\nfreeze * 2 8\n");
    EXPECT_EQ(s.lastEnd(), 300u);
}

TEST(FaultSchedule, MergeAppends)
{
    FaultSchedule a = FaultSchedule::parse("outage gm * 0 5\n");
    FaultSchedule b = FaultSchedule::parse("stuck 1 2 3\n");
    a.merge(b);
    ASSERT_EQ(a.events().size(), 2u);
    EXPECT_EQ(a.events()[1].kind, FaultKind::StuckPState);
}

TEST(FaultScheduleDeath, RejectsMalformedClauses)
{
    EXPECT_DEATH(FaultSchedule::parse("outage nowhere 0 1 2\n"), "");
    EXPECT_DEATH(FaultSchedule::parse("drop gm-em 0 1\n"), "");
    EXPECT_DEATH(FaultSchedule::parse("wobble 0 1 2\n"), "");
    EXPECT_DEATH(FaultSchedule::parse("outage sm 0 20 10\n"), "");
    EXPECT_DEATH(FaultSchedule::parse("noise 0 1 2\n"), "");
}

TEST(FaultScheduleDeath, RejectsPartlyNumericAndSignedTokens)
{
    // Every token must be consumed whole: a trailing suffix is not
    // ignored, and a sign never wraps a tick or an id around.
    EXPECT_DEATH(FaultSchedule::parse("outage sm 3 10 20x\n"),
                 "bad tick '20x'");
    EXPECT_DEATH(FaultSchedule::parse("stuck 1 -1 5\n"), "bad tick '-1'");
    EXPECT_DEATH(FaultSchedule::parse("drop gm-em 0 1 5 0.5x\n"),
                 "bad number '0.5x'");
    EXPECT_DEATH(FaultSchedule::parse("noise 2 1 5 nan\n"),
                 "bad number 'nan'");
    EXPECT_DEATH(FaultSchedule::parse("freeze 3x 1 5\n"),
                 "bad target id '3x'");
    EXPECT_DEATH(FaultSchedule::parse("freeze -2 1 5\n"),
                 "bad target id '-2'");
}

// ---------------------------------------------------------------------
// Seeded-random campaign.

RandomFaultConfig
fullCampaign()
{
    RandomFaultConfig cfg;
    cfg.horizon = 600;
    cfg.outages = 3;
    cfg.drops = 2;
    cfg.drop_prob = 0.5;
    cfg.stales = 2;
    cfg.stucks = 2;
    cfg.noises = 2;
    cfg.noise_sigma = 0.2;
    cfg.freezes = 1;
    return cfg;
}

TEST(RandomCampaign, IsDeterministicInSeed)
{
    RandomFaultConfig cfg = fullCampaign();
    FaultSchedule a = FaultSchedule::randomized(cfg, 77, 6, 1);
    FaultSchedule b = FaultSchedule::randomized(cfg, 77, 6, 1);
    EXPECT_EQ(a.toText(), b.toText());

    FaultSchedule c = FaultSchedule::randomized(cfg, 78, 6, 1);
    EXPECT_NE(a.toText(), c.toText());
}

TEST(RandomCampaign, GeneratesRequestedEventCounts)
{
    RandomFaultConfig cfg = fullCampaign();
    FaultSchedule s = FaultSchedule::randomized(cfg, 5, 6, 1);
    size_t counts[6] = {0, 0, 0, 0, 0, 0};
    for (const auto &e : s.events())
        ++counts[static_cast<int>(e.kind)];
    EXPECT_EQ(counts[static_cast<int>(FaultKind::Outage)], cfg.outages);
    EXPECT_EQ(counts[static_cast<int>(FaultKind::DropBudget)], cfg.drops);
    EXPECT_EQ(counts[static_cast<int>(FaultKind::StaleBudget)],
              cfg.stales);
    EXPECT_EQ(counts[static_cast<int>(FaultKind::StuckPState)],
              cfg.stucks);
    EXPECT_EQ(counts[static_cast<int>(FaultKind::UtilNoise)], cfg.noises);
    EXPECT_EQ(counts[static_cast<int>(FaultKind::UtilFreeze)],
              cfg.freezes);
}

TEST(RandomCampaign, EventsAreWellFormedAndInRange)
{
    RandomFaultConfig cfg = fullCampaign();
    const size_t servers = 6, enclosures = 1;
    for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        FaultSchedule s =
            FaultSchedule::randomized(cfg, seed, servers, enclosures);
        for (const auto &e : s.events()) {
            EXPECT_LT(e.start, e.end);
            EXPECT_LE(e.start, cfg.horizon);
            if (e.kind == FaultKind::DropBudget) {
                EXPECT_DOUBLE_EQ(e.magnitude, cfg.drop_prob);
            }
            if (e.kind == FaultKind::UtilNoise) {
                EXPECT_DOUBLE_EQ(e.magnitude, cfg.noise_sigma);
            }
            if (e.kind == FaultKind::StuckPState ||
                e.kind == FaultKind::UtilNoise ||
                e.kind == FaultKind::UtilFreeze) {
                EXPECT_GE(e.id, 0);
                EXPECT_LT(e.id, static_cast<long>(servers));
            }
        }
        // The generated campaign must itself survive the text round-trip.
        EXPECT_EQ(FaultSchedule::parse(s.toText()).toText(), s.toText());
    }
}

TEST(RandomCampaign, ZeroConfigGeneratesNothing)
{
    RandomFaultConfig cfg;
    EXPECT_FALSE(cfg.any());
    EXPECT_TRUE(FaultSchedule::randomized(cfg, 9, 6, 1).empty());
}

} // namespace
