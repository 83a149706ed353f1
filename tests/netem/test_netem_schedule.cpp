/**
 * @file
 * NetemSchedule parsing and the NetemModel query surface
 * (docs/NETWORK_FAULTS.md): grammar round-trips, target matching, and
 * the determinism contract — every verdict a pure function of
 * (schedule, seed, link, seq), indifferent to who asks or when.
 */

#include <gtest/gtest.h>

#include <set>

#include "fault/netem/netem.h"

using namespace nps;
using fault::Link;
using fault::netem::NetemEvent;
using fault::netem::NetemKind;
using fault::netem::NetemModel;
using fault::netem::NetemSchedule;

namespace {

TEST(NetemScheduleTest, ParsesEveryVerbAndTarget)
{
    NetemSchedule s = NetemSchedule::parse(
        "delay gm-em 10 20 2 3\n"
        "dup em-sm 5 15 0.5; corrupt rank:2 0 8\n"
        "# a comment line\n"
        "partition * 30 40   # trailing comment\n");
    ASSERT_EQ(s.events().size(), 4u);

    const NetemEvent &delay = s.events()[0];
    EXPECT_EQ(delay.kind, NetemKind::Delay);
    EXPECT_FALSE(delay.all);
    EXPECT_FALSE(delay.by_rank);
    EXPECT_EQ(delay.link, Link::GmToEm);
    EXPECT_EQ(delay.start, 10u);
    EXPECT_EQ(delay.end, 20u);
    EXPECT_DOUBLE_EQ(delay.a, 2.0);
    EXPECT_DOUBLE_EQ(delay.b, 3.0);

    const NetemEvent &dup = s.events()[1];
    EXPECT_EQ(dup.kind, NetemKind::Duplicate);
    EXPECT_DOUBLE_EQ(dup.a, 0.5);

    const NetemEvent &corrupt = s.events()[2];
    EXPECT_EQ(corrupt.kind, NetemKind::Corrupt);
    EXPECT_TRUE(corrupt.by_rank);
    EXPECT_EQ(corrupt.rank, 2);
    EXPECT_DOUBLE_EQ(corrupt.a, 1.0); // default probability

    const NetemEvent &part = s.events()[3];
    EXPECT_EQ(part.kind, NetemKind::Partition);
    EXPECT_TRUE(part.all);

    EXPECT_EQ(s.lastEnd(), 40u);
}

TEST(NetemScheduleTest, ToTextRoundTrips)
{
    const std::string script =
        "delay gm-sm 1 9 4 0; dup * 2 6 0.25; partition rank:1 3 7";
    NetemSchedule a = NetemSchedule::parse(script);
    NetemSchedule b = NetemSchedule::parse(a.toText("\n"));
    ASSERT_EQ(a.events().size(), b.events().size());
    EXPECT_EQ(a.toText("; "), b.toText("; "));
}

TEST(NetemScheduleTest, MalformedScriptsDie)
{
    EXPECT_DEATH(NetemSchedule::parse("warp gm-em 0 10"), "unknown verb");
    EXPECT_DEATH(NetemSchedule::parse("delay nowhere 0 10 1"),
                 "unknown target");
    EXPECT_DEATH(NetemSchedule::parse("delay gm-em 10 10 1"),
                 "empty interval");
    EXPECT_DEATH(NetemSchedule::parse("dup gm-em 0 10 1.5"),
                 "probability");
    EXPECT_DEATH(NetemSchedule::parse("partition gm-em 0 10 0.5"),
                 "arity");
    EXPECT_DEATH(NetemSchedule::parse("delay gm-em 0 10"), "arity");
}

TEST(NetemScheduleTest, PartlyNumericAndSignedTokensDie)
{
    // "-1" used to wrap to 2^64-1: a window that never ends.
    EXPECT_DEATH(NetemSchedule::parse("delay gm-em 5 -1 2"),
                 "bad tick '-1'");
    EXPECT_DEATH(NetemSchedule::parse("partition * 0 10x"),
                 "bad tick '10x'");
    EXPECT_DEATH(NetemSchedule::parse("delay gm-em 0 10 2ms"),
                 "bad number '2ms'");
    EXPECT_DEATH(NetemSchedule::parse("dup gm-em 0 10 nan"),
                 "bad number 'nan'");
    EXPECT_DEATH(NetemSchedule::parse("partition rank:1x 0 10"),
                 "bad rank 'rank:1x'");
    EXPECT_DEATH(NetemSchedule::parse("partition rank:-1 0 10"),
                 "bad rank 'rank:-1'");
}

TEST(NetemScheduleTest, TargetsUseTheFaultLinkNames)
{
    for (nps::fault::Link l : nps::fault::kAllLinks) {
        NetemSchedule s = NetemSchedule::parse(
            std::string("partition ") + nps::fault::linkName(l) + " 0 10");
        ASSERT_EQ(s.events().size(), 1u);
        EXPECT_EQ(s.events()[0].link, l);
    }
}

TEST(NetemModelTest, TargetsMatchClassRankAndWildcard)
{
    NetemModel m(NetemSchedule::parse("partition gm-em 10 20\n"
                                      "partition rank:2 30 40\n"
                                      "partition * 50 60"),
                 /*seed=*/7, /*deadline=*/0);

    // Link-class target: only gm-em, only inside the window.
    EXPECT_TRUE(m.partitioned(Link::GmToEm, 1, 15));
    EXPECT_FALSE(m.partitioned(Link::EmToSm, 1, 15));
    EXPECT_FALSE(m.partitioned(Link::GmToEm, 1, 9));
    EXPECT_FALSE(m.partitioned(Link::GmToEm, 1, 20)); // half-open end

    // Rank target: any class owned by rank 2.
    EXPECT_TRUE(m.partitioned(Link::EmToSm, 2, 35));
    EXPECT_FALSE(m.partitioned(Link::EmToSm, 1, 35));

    // Wildcard: everything.
    EXPECT_TRUE(m.partitioned(Link::GmToGm, 3, 55));

    // The supervisor-side health view.
    EXPECT_TRUE(m.rankPartitioned(2, 35));
    EXPECT_FALSE(m.rankPartitioned(1, 35));
    EXPECT_TRUE(m.rankPartitioned(1, 55)); // wildcard covers everyone
    // A link-class event does not name a rank.
    EXPECT_FALSE(m.rankPartitioned(1, 15));
}

TEST(NetemModelTest, DelayDrawsStayInRangeAndAreSeqKeyed)
{
    NetemModel m(NetemSchedule::parse("delay gm-em 0 100 2 3"), 42, 0);
    std::set<size_t> seen;
    for (uint64_t seq = 1; seq <= 200; ++seq) {
        size_t d = m.delayTicks(Link::GmToEm, 1, 5, seq, 10);
        EXPECT_GE(d, 2u);
        EXPECT_LE(d, 5u);
        seen.insert(d);
        // Same (link, seq) at another tick inside the window: same draw.
        EXPECT_EQ(d, m.delayTicks(Link::GmToEm, 1, 5, seq, 60));
    }
    // The jitter span is actually exercised.
    EXPECT_EQ(seen.size(), 4u);
    // Outside the window: no delay.
    EXPECT_EQ(m.delayTicks(Link::GmToEm, 1, 5, 1, 100), 0u);
}

TEST(NetemModelTest, VerdictsAreReplicaIndependent)
{
    // Two models built from the same (schedule, seed) — as two replicas
    // would — agree on every per-send verdict.
    const std::string script =
        "delay * 0 50 1 4; dup em-sm 0 50 0.3; corrupt gm-em 0 50 0.4";
    NetemModel a(NetemSchedule::parse(script), 99, 0);
    NetemModel b(NetemSchedule::parse(script), 99, 0);
    for (uint64_t seq = 1; seq <= 100; ++seq) {
        EXPECT_EQ(a.delayTicks(Link::EmToSm, 2, 3, seq, 10),
                  b.delayTicks(Link::EmToSm, 2, 3, seq, 10));
        EXPECT_EQ(a.duplicated(Link::EmToSm, 2, 3, seq, 10),
                  b.duplicated(Link::EmToSm, 2, 3, seq, 10));
        size_t off_a = 0, off_b = 0;
        EXPECT_EQ(a.corrupted(Link::GmToEm, 1, 1, seq, 10, &off_a),
                  b.corrupted(Link::GmToEm, 1, 1, seq, 10, &off_b));
        EXPECT_EQ(off_a, off_b);
    }
    // A different seed decorrelates the coin flips.
    NetemModel c(NetemSchedule::parse(script), 100, 0);
    size_t differs = 0;
    for (uint64_t seq = 1; seq <= 100; ++seq)
        differs += a.delayTicks(Link::EmToSm, 2, 3, seq, 10) !=
                   c.delayTicks(Link::EmToSm, 2, 3, seq, 10);
    EXPECT_GT(differs, 0u);
}

TEST(NetemModelTest, ActiveCountFollowsTheWindows)
{
    NetemModel m(NetemSchedule::parse("delay gm-em 10 20 1\n"
                                      "partition em-sm 15 25"),
                 1, 0);
    EXPECT_EQ(m.activeCount(5), 0u);
    EXPECT_EQ(m.activeCount(12), 1u);
    EXPECT_EQ(m.activeCount(17), 2u);
    EXPECT_EQ(m.activeCount(22), 1u);
    EXPECT_EQ(m.activeCount(25), 0u);
}

TEST(NetemModelTest, EmptyModelIsInert)
{
    NetemModel m;
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.partitioned(Link::GmToEm, 1, 0));
    EXPECT_EQ(m.delayTicks(Link::GmToEm, 1, 0, 1, 0), 0u);
    EXPECT_FALSE(m.duplicated(Link::GmToEm, 1, 0, 1, 0));
    EXPECT_FALSE(m.corrupted(Link::GmToEm, 1, 0, 1, 0, nullptr));
}

} // namespace
