/**
 * @file
 * Tests for the typed control links: sequencing, budget drop/stale
 * fault semantics, the delivery clamp, reset, and deterministic
 * mirroring into the control-plane log and its cascade view.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "bus/control_link.h"
#include "bus/control_log.h"
#include "fault/injector.h"
#include "util/csv.h"

namespace {

using namespace nps;
using bus::BudgetLink;
using bus::ControlPlaneLog;
using bus::ReferenceLink;
using bus::TelemetryLink;
using bus::ViolationChannel;

struct SinkRecord
{
    std::vector<bus::BudgetGrant> grants;
};

BudgetLink
makeLink(SinkRecord &rec, fault::Link link = fault::Link::EmToSm,
         long child = 9)
{
    return BudgetLink(link, child, "EM/0->SM/9",
                      [&rec](const bus::BudgetGrant &g) {
                          rec.grants.push_back(g);
                      });
}

TEST(BudgetLinkTest, SequencesAndDeliversFaultFree)
{
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    EXPECT_TRUE(link.send(120.0, 5));
    EXPECT_TRUE(link.send(130.0, 10));
    ASSERT_EQ(rec.grants.size(), 2u);
    EXPECT_DOUBLE_EQ(rec.grants[0].watts, 120.0);
    EXPECT_EQ(rec.grants[0].tick, 5u);
    EXPECT_EQ(rec.grants[0].seq, 1u);
    EXPECT_EQ(rec.grants[1].seq, 2u);
    EXPECT_EQ(link.sent(), 2u);
    EXPECT_EQ(link.delivered(), 2u);
}

TEST(BudgetLinkTest, ClampsDeliveryToPositiveFloor)
{
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    link.send(0.0, 1);
    link.send(-5.0, 2);
    ASSERT_EQ(rec.grants.size(), 2u);
    EXPECT_DOUBLE_EQ(rec.grants[0].watts, BudgetLink::kMinGrant);
    EXPECT_DOUBLE_EQ(rec.grants[1].watts, BudgetLink::kMinGrant);
}

TEST(BudgetLinkTest, DropWindowSuppressesDeliveryAndCounts)
{
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    fault::FaultInjector inj(
        fault::FaultSchedule::parse("drop em-sm 9 10 20 1"), 1);
    fault::DegradeStats stats;
    link.setFaultInjector(&inj, &stats);

    EXPECT_TRUE(link.send(100.0, 5));   // before the window
    EXPECT_FALSE(link.send(110.0, 12)); // inside: dropped
    EXPECT_TRUE(link.send(120.0, 25));  // after
    ASSERT_EQ(rec.grants.size(), 2u);
    EXPECT_DOUBLE_EQ(rec.grants[1].watts, 120.0);
    EXPECT_EQ(stats.dropped_budgets, 1u);
    EXPECT_EQ(link.sent(), 3u);
    EXPECT_EQ(link.delivered(), 2u);
}

TEST(BudgetLinkTest, DropTargetsOnlyTheNamedChild)
{
    SinkRecord rec9, rec7;
    BudgetLink hit = makeLink(rec9, fault::Link::EmToSm, 9);
    BudgetLink miss(fault::Link::EmToSm, 7, "EM/0->SM/7",
                    [&rec7](const bus::BudgetGrant &g) {
                        rec7.grants.push_back(g);
                    });
    fault::FaultInjector inj(
        fault::FaultSchedule::parse("drop em-sm 9 0 100 1"), 1);
    fault::DegradeStats stats;
    hit.setFaultInjector(&inj, &stats);
    miss.setFaultInjector(&inj, &stats);
    hit.send(100.0, 10);
    miss.send(100.0, 10);
    EXPECT_TRUE(rec9.grants.empty());
    ASSERT_EQ(rec7.grants.size(), 1u);
}

TEST(BudgetLinkTest, StaleReplaysPreviousEpochOnly)
{
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    fault::FaultInjector inj(
        fault::FaultSchedule::parse("stale em-sm 9 10 20"), 1);
    fault::DegradeStats stats;
    link.setFaultInjector(&inj, &stats);

    link.send(100.0, 5);  // fresh; becomes the replayable epoch
    link.send(200.0, 12); // stale window: replays 100
    link.send(300.0, 15); // still stale: replays 200 (prev advanced)
    link.send(400.0, 25); // fresh again
    ASSERT_EQ(rec.grants.size(), 4u);
    EXPECT_DOUBLE_EQ(rec.grants[0].watts, 100.0);
    EXPECT_DOUBLE_EQ(rec.grants[1].watts, 100.0);
    EXPECT_DOUBLE_EQ(rec.grants[2].watts, 200.0);
    EXPECT_DOUBLE_EQ(rec.grants[3].watts, 400.0);
    EXPECT_EQ(stats.stale_budgets, 2u);
}

TEST(BudgetLinkTest, StaleWithNoHistoryDeliversFreshUncounted)
{
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    fault::FaultInjector inj(
        fault::FaultSchedule::parse("stale em-sm 9 0 20"), 1);
    fault::DegradeStats stats;
    link.setFaultInjector(&inj, &stats);

    link.send(100.0, 5); // first ever send: nothing old to replay
    ASSERT_EQ(rec.grants.size(), 1u);
    EXPECT_DOUBLE_EQ(rec.grants[0].watts, 100.0);
    EXPECT_EQ(stats.stale_budgets, 0u);
}

TEST(BudgetLinkTest, ResetForgetsReplayHistory)
{
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    fault::FaultInjector inj(
        fault::FaultSchedule::parse("stale em-sm 9 10 20"), 1);
    fault::DegradeStats stats;
    link.setFaultInjector(&inj, &stats);

    link.send(100.0, 5);
    link.reset(); // sender restarted cold
    link.send(200.0, 12); // stale window, but history gone: fresh
    ASSERT_EQ(rec.grants.size(), 2u);
    EXPECT_DOUBLE_EQ(rec.grants[1].watts, 200.0);
    EXPECT_EQ(stats.stale_budgets, 0u);
}

TEST(BudgetLinkTest, DroppedSendStillAdvancesReplayEpoch)
{
    // PR 2 semantics: prev_grants_[slot] was updated even when the send
    // was dropped, so a stale fault right after a drop replays the
    // *dropped* value, not the one before it.
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    fault::FaultInjector inj(fault::FaultSchedule::parse(
                                 "drop em-sm 9 10 14 1; "
                                 "stale em-sm 9 15 20"),
                             1);
    fault::DegradeStats stats;
    link.setFaultInjector(&inj, &stats);

    link.send(100.0, 5);
    link.send(200.0, 12); // dropped, but recorded as previous epoch
    link.send(300.0, 16); // stale: replays 200
    ASSERT_EQ(rec.grants.size(), 2u);
    EXPECT_DOUBLE_EQ(rec.grants[1].watts, 200.0);
}

TEST(ViolationChannelTest, PollsAndDrainsTheSource)
{
    bus::ViolationTracker tracker;
    tracker.record(true);
    tracker.record(false);
    ViolationChannel ch("loc0->VMC", &tracker);
    bus::ViolationReport r = ch.poll(100);
    EXPECT_DOUBLE_EQ(r.epoch_rate, 0.5);
    EXPECT_EQ(r.tick, 100u);
    EXPECT_EQ(r.seq, 1u);
    ch.drain();
    EXPECT_DOUBLE_EQ(ch.poll(101).epoch_rate, 0.0);
}

TEST(ReferenceLinkTest, DeliversSequencedUpdates)
{
    std::vector<bus::ReferenceUpdate> seen;
    ReferenceLink link("SM/0->EC/0", [&](const bus::ReferenceUpdate &u) {
        seen.push_back(u);
    });
    link.send(0.72, 4);
    link.send(0.68, 9);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_DOUBLE_EQ(seen[0].r_ref, 0.72);
    EXPECT_EQ(seen[1].seq, 2u);
}

TEST(ControlLogTest, MirrorsDeliveredAndDroppedTraffic)
{
    ControlPlaneLog log;
    SinkRecord rec;
    BudgetLink link = makeLink(rec);
    link.attachLog(&log);
    fault::FaultInjector inj(
        fault::FaultSchedule::parse("drop em-sm 9 10 20 1"), 1);
    fault::DegradeStats stats;
    link.setFaultInjector(&inj, &stats);

    link.send(100.0, 5);
    link.send(110.0, 12); // dropped, still mirrored
    ASSERT_EQ(log.totalEvents(), 2u);
    auto merged = log.merged();
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_TRUE(merged[0].event->delivered);
    EXPECT_FALSE(merged[1].event->delivered);
    EXPECT_DOUBLE_EQ(merged[1].event->aux, 110.0);
}

TEST(ControlLogTest, MergedOrderIsIndependentOfRegistration)
{
    // Two logs with opposite registration order must merge identically:
    // the order is (tick, link name, seq), never insertion.
    auto run = [](bool flip) {
        auto log = std::make_unique<ControlPlaneLog>();
        TelemetryLink a("CAP/0.clamp");
        TelemetryLink b("MM/1.memmode");
        if (flip) {
            b.attachLog(log.get());
            a.attachLog(log.get());
        } else {
            a.attachLog(log.get());
            b.attachLog(log.get());
        }
        b.emit(1.0, 0.5, 7);
        a.emit(1.0, 0.2, 3);
        a.emit(0.0, 0.1, 7);
        std::ostringstream out;
        log->writeCsv(out);
        return out.str();
    };
    std::string forward = run(false);
    EXPECT_EQ(forward, run(true));
    // Tick order first: the tick-3 clamp precedes both tick-7 events
    // (the tick is the leading CSV column).
    EXPECT_LT(forward.find("\n3,"), forward.find("\n7,"));
}

/** Rows of a CSV view (header dropped). */
std::vector<std::vector<std::string>>
csvRows(const ControlPlaneLog &log, bool cascade)
{
    std::ostringstream out;
    if (cascade)
        log.writeCascadeCsv(out);
    else
        log.writeCsv(out);
    auto rows = nps::util::parseCsv(out.str()).rows;
    rows.erase(rows.begin());
    return rows;
}

/** Feed one stamped/unstamped mix of grants and polls into @p log. */
void
driveCascade(ControlPlaneLog &log)
{
    SinkRecord rec;
    BudgetLink grant = makeLink(rec);
    bus::ViolationTracker tracker;
    ViolationChannel poll("SM/9->VMC", &tracker);
    ReferenceLink ref("SM/9->EC/9", [](const bus::ReferenceUpdate &) {});
    grant.attachLog(&log);
    poll.attachLog(&log);
    ref.attachLog(&log);
    grant.send(100.0, 3); // before any epoch: untraced
    grant.setTraceStamp(11);
    grant.send(110.0, 10); // epoch opened at tick 10
    ref.send(0.7, 12);     // references are never stamped
    poll.poll(14);         // the tracker answers no epoch: untraced
    grant.setTraceStamp(21);
    grant.send(120.0, 20);
    grant.send(125.0, 23);
}

TEST(ControlLogTest, CascadeViewIsTheTracedSubsetOfTheLog)
{
    // With both outputs on, the cascade CSV rows are exactly the control
    // log's rows whose event carries a trace id, in the same order.
    ControlPlaneLog log;
    driveCascade(log);
    auto events = log.merged();
    auto control = csvRows(log, false); // tick,link,kind,seq,value,aux,..
    ASSERT_EQ(control.size(), 6u);
    ASSERT_EQ(events.size(), control.size());
    std::vector<std::vector<std::string>> want;
    for (size_t i = 0; i < events.size(); ++i) {
        if (events[i].event->trace == 0)
            continue;
        const auto &c = control[i];
        // tick,link,kind,seq,trace,root_tick,hop_latency,value,delivered
        const size_t root = events[i].event->trace - 1;
        want.push_back({c[0], c[1], c[2], c[3],
                        std::to_string(events[i].event->trace),
                        std::to_string(root),
                        std::to_string(events[i].event->tick - root), c[4],
                        c[6]});
    }
    ASSERT_EQ(want.size(), 3u);
    EXPECT_EQ(log.tracedEvents(), want.size());
    EXPECT_EQ(csvRows(log, true), want);
    // The first stamped grant went out the tick its epoch opened.
    EXPECT_EQ(want[0], (std::vector<std::string>{"10", "EM/0->SM/9",
                                                  "budget", "2", "11",
                                                  "10", "0", "110", "1"}));
}

TEST(ControlLogTest, TracedOnlyLogKeepsJustTheStampedEvents)
{
    ControlPlaneLog full;
    ControlPlaneLog traced(/*traced_only=*/true);
    driveCascade(full);
    driveCascade(traced);
    EXPECT_TRUE(traced.tracedOnly());
    EXPECT_EQ(traced.totalEvents(), traced.tracedEvents());
    EXPECT_EQ(traced.totalEvents(), full.tracedEvents());
    EXPECT_EQ(csvRows(traced, true), csvRows(full, true));
}

} // namespace
