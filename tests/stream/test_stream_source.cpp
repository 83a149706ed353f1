/**
 * @file
 * StreamSource ingest policy and ClusterFeed staging policy, in
 * process over socketpairs: barrier-complete delivery, the
 * late/duplicate/overflow/bad-stream/bad-value tallies,
 * timeout-degraded partial ticks, end-of-feed semantics (clean bye vs.
 * feeder killed mid-frame), and the hold-last → conservative-fallback
 * missing-sample ladder (docs/STREAMING.md).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/fixtures.h"
#include "core/coordinator.h"
#include "core/scenarios.h"
#include "stream/feed.h"
#include "stream/frame.h"
#include "stream/net.h"
#include "stream/stream_source.h"

namespace {

using namespace nps;
using namespace nps::stream;

/** A connected socket pair; w is the feeder's end. */
struct Pipe
{
    int r = -1;
    int w = -1;
    Pipe()
    {
        int fds[2];
        EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
        r = fds[0];
        w = fds[1];
    }
    ~Pipe()
    {
        if (w >= 0)
            ::close(w);
        // r is owned (and closed) by the StreamSource under test.
    }
    void send(const FrameWriter &fw)
    {
        EXPECT_TRUE(writeAll(w, fw.data(), fw.size()));
    }
    void closeWriter()
    {
        ::close(w);
        w = -1;
    }
};

FrameWriter
helloFor(uint32_t streams, uint64_t start = 0, uint64_t total = 0)
{
    FrameWriter fw;
    HelloFrame h;
    h.streams = streams;
    h.start_tick = start;
    h.total_ticks = total;
    fw.hello(h);
    return fw;
}

StreamConfig
quickConfig(unsigned timeout_ms = 2000)
{
    StreamConfig cfg;
    cfg.enabled = true;
    cfg.timeout_ms = timeout_ms;
    cfg.max_pending = 4;
    return cfg;
}

TEST(StreamSource, DeliversBarrierCompleteTicksThenEndsOnBye)
{
    Pipe p;
    FrameWriter fw = helloFor(2, 0, 3);
    for (uint64_t t = 0; t < 3; ++t) {
        for (uint32_t s = 0; s < 2; ++s) {
            SampleFrame smp;
            smp.tick = t;
            smp.stream = s;
            smp.demand = 0.25 * static_cast<double>(t + s + 1);
            fw.sample(smp);
        }
        fw.tickEnd(t);
    }
    fw.bye(3);
    p.send(fw);
    p.closeWriter();

    StreamSource src(p.r, 2, quickConfig());
    TickBatch b;
    for (size_t t = 0; t < 3; ++t) {
        ASSERT_TRUE(src.pull(t, b)) << "tick " << t;
        EXPECT_EQ(b.tick, t);
        EXPECT_EQ(b.samples, 2u);
        for (uint32_t s = 0; s < 2; ++s) {
            EXPECT_TRUE(b.present[s]);
            EXPECT_EQ(b.demand[s], 0.25 * static_cast<double>(t + s + 1));
        }
    }
    EXPECT_FALSE(src.pull(3, b));
    EXPECT_TRUE(src.sawHello());
    EXPECT_TRUE(src.sawBye());
    EXPECT_FALSE(src.truncated());
    EXPECT_EQ(src.hello().streams, 2u);
    EXPECT_EQ(src.hello().total_ticks, 3u);
    EXPECT_EQ(src.ingest()->timeouts, 0u);
}

TEST(StreamSource, CountsDuplicatesLateOverflowAndBadStreams)
{
    Pipe p;
    // Phase 1: tick 0 with a duplicate for stream 0 (last write wins)
    // and a sample naming a stream that does not exist.
    FrameWriter fw = helloFor(2);
    SampleFrame s;
    s.tick = 0;
    s.stream = 0;
    s.demand = 0.5;
    fw.sample(s);
    s.demand = 0.7; // duplicate (tick 0, stream 0)
    fw.sample(s);
    s.stream = 7; // no such stream
    fw.sample(s);
    fw.tickEnd(0);
    p.send(fw);

    StreamSource src(p.r, 2, quickConfig());
    TickBatch b;
    ASSERT_TRUE(src.pull(0, b));
    EXPECT_EQ(b.samples, 1u);
    EXPECT_TRUE(b.present[0]);
    EXPECT_FALSE(b.present[1]);
    EXPECT_EQ(b.demand[0], 0.7);
    EXPECT_EQ(src.ingest()->duplicates, 1u);
    EXPECT_EQ(src.ingest()->bad_stream, 1u);

    // Phase 2: a sample for the already-delivered tick 0 (late) and one
    // absurdly far ahead of the 4-tick pending window (overflow).
    FrameWriter fw2;
    s.stream = 1;
    s.tick = 0;
    fw2.sample(s); // late: tick 0 was delivered, cursor is at 1
    s.tick = 40;
    s.stream = 0;
    fw2.sample(s); // overflow: 40 >= cursor(1) + max_pending(4)
    fw2.tickEnd(1);
    p.send(fw2);

    ASSERT_TRUE(src.pull(1, b));
    EXPECT_EQ(b.samples, 0u);
    EXPECT_EQ(src.ingest()->late, 1u);
    EXPECT_EQ(src.ingest()->overflow, 1u);
    EXPECT_EQ(src.ingest()->samples, 1u); // only tick 0's stream-0 value
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(StreamSource, DropsNegativeAndNonFiniteDemand)
{
    // Tick 0: NaN on stream 0, a good value on stream 1. Tick 1: -1
    // and +inf. Tick 2: a good value, then a NaN duplicate of it, which
    // must not overwrite it.
    Pipe p;
    FrameWriter fw = helloFor(2);
    auto sample = [&fw](uint64_t tick, uint32_t stream, double demand) {
        SampleFrame s;
        s.tick = tick;
        s.stream = stream;
        s.demand = demand;
        fw.sample(s);
    };
    sample(0, 0, kNaN);
    sample(0, 1, 0.4);
    fw.tickEnd(0);
    sample(1, 0, -1.0);
    sample(1, 1, kInf);
    fw.tickEnd(1);
    sample(2, 0, 0.3);
    sample(2, 0, kNaN);
    sample(2, 1, -kInf);
    fw.tickEnd(2);
    fw.bye(3);
    p.send(fw);
    p.closeWriter();

    StreamSource src(p.r, 2, quickConfig());
    TickBatch b;
    ASSERT_TRUE(src.pull(0, b));
    EXPECT_FALSE(b.present[0]);
    EXPECT_TRUE(b.present[1]);
    EXPECT_EQ(b.demand[1], 0.4);
    ASSERT_TRUE(src.pull(1, b));
    EXPECT_EQ(b.samples, 0u);
    ASSERT_TRUE(src.pull(2, b));
    EXPECT_EQ(b.samples, 1u);
    EXPECT_TRUE(b.present[0]);
    EXPECT_EQ(b.demand[0], 0.3);
    EXPECT_FALSE(b.present[1]);
    EXPECT_FALSE(src.pull(3, b));

    const IngestStats &in = *src.ingest();
    EXPECT_EQ(in.bad_value, 5u);
    EXPECT_EQ(in.samples, 2u);
    EXPECT_EQ(in.duplicates, 0u);
    EXPECT_EQ(in.bad_stream, 0u);
}

TEST(StreamSource, BadDemandIsHeldOrReplacedAndTheRunStaysFinite)
{
    // A coordinated run (VMC on, epoch every 10 ticks) fed over a
    // socket. VM 0 sends NaN, -1 and +inf over ticks 5-9; VM 1 sends
    // +inf from tick 12 on. Without the drop, NaN reaches the packer
    // and -1 aborts the plant; with it, hold-last bridges the first
    // three misses of a stream and the fallback serves the rest.
    core::CoordinationConfig cfg = core::coordinatedConfig();
    cfg.threads = 2;
    cfg.vmc.period = 10;
    cfg.stream.enabled = true;
    cfg.stream.hold_last = true;
    cfg.stream.hold_ticks = 3;
    cfg.stream.fallback_util = 0.2;
    cfg.stream.timeout_ms = 0;
    const size_t vms = 6, ticks = 30;
    core::Coordinator coord(cfg, sim::Topology{6, 1, 4},
                            model::bladeA(), nps_test::flatTraces(vms, 0.3));

    Pipe p;
    FrameWriter fw = helloFor(static_cast<uint32_t>(vms), 0, ticks);
    const double bad[] = {kNaN, -1.0, kInf, kNaN, -1.0};
    size_t bad_frames = 0;
    for (uint64_t t = 0; t < ticks; ++t) {
        for (uint32_t vm = 0; vm < vms; ++vm) {
            SampleFrame s;
            s.tick = t;
            s.stream = vm;
            s.demand = 0.3 + 0.01 * static_cast<double>(vm);
            if (vm == 0 && t >= 5 && t < 10)
                s.demand = bad[t - 5];
            if (vm == 1 && t >= 12)
                s.demand = kInf;
            bad_frames += std::isfinite(s.demand) && s.demand >= 0.0 ? 0 : 1;
            fw.sample(s);
        }
        fw.tickEnd(t);
    }
    fw.bye(ticks);
    p.send(fw);
    p.closeWriter();

    StreamSource src(p.r, vms, cfg.stream);
    ClusterFeed feed(coord.cluster(), src, cfg.stream);
    coord.engine().setTickSource(&feed);
    coord.attachStreamHealth(&feed);
    EXPECT_EQ(coord.run(ticks), ticks);

    EXPECT_EQ(src.ingest()->bad_value, bad_frames);
    const ClusterFeed::Stats &st = feed.stats();
    EXPECT_EQ(st.missing_samples, bad_frames);
    // VM 0: 5 misses = 3 held + 2 fallback; VM 1: 18 = 3 + 15.
    EXPECT_EQ(st.held_samples, 6u);
    EXPECT_EQ(st.fallback_samples, 17u);
    EXPECT_EQ(coord.cluster().stagedDemand()[1], 0.2);

    const sim::MetricsSummary m = coord.summary();
    EXPECT_EQ(m.ticks, ticks);
    for (double v : {m.energy, m.mean_power, m.peak_power, m.perf_loss,
                     m.sm_violation, m.em_violation, m.gm_violation})
        EXPECT_TRUE(std::isfinite(v)) << v;
    EXPECT_GT(m.mean_power, 0.0);
    const sim::VmStateSoA &vs = coord.cluster().vmState();
    for (size_t j = 0; j < vms; ++j)
        EXPECT_TRUE(std::isfinite(vs.last_served[j])) << "VM " << j;
}

TEST(StreamSource, TimeoutDeliversPartialTick)
{
    Pipe p;
    FrameWriter fw = helloFor(2);
    SampleFrame s;
    s.tick = 0;
    s.stream = 0;
    s.demand = 0.4;
    fw.sample(s);
    // No barrier, and the writer stays open: the source must give up
    // after timeout_ms and deliver what it has.
    p.send(fw);

    StreamSource src(p.r, 2, quickConfig(/*timeout_ms=*/50));
    TickBatch b;
    ASSERT_TRUE(src.pull(0, b));
    EXPECT_EQ(b.samples, 1u);
    EXPECT_TRUE(b.present[0]);
    EXPECT_FALSE(b.present[1]);
    EXPECT_EQ(src.ingest()->timeouts, 1u);
}

TEST(StreamSource, EofBeforeBarrierDeliversNothing)
{
    // The feeder dies between frames: the half-open tick is withheld,
    // so the run's output stays a byte-prefix of the uninterrupted run.
    Pipe p;
    FrameWriter fw = helloFor(1);
    SampleFrame s;
    s.tick = 0;
    s.stream = 0;
    s.demand = 0.9;
    fw.sample(s);
    p.send(fw);
    p.closeWriter();

    StreamSource src(p.r, 1, quickConfig());
    TickBatch b;
    EXPECT_FALSE(src.pull(0, b));
    EXPECT_FALSE(src.sawBye());
    EXPECT_FALSE(src.truncated()); // died on a frame boundary
}

TEST(StreamSource, KilledMidFrameIsFlaggedTruncated)
{
    Pipe p;
    FrameWriter fw = helloFor(1);
    SampleFrame s;
    s.tick = 0;
    s.stream = 0;
    s.demand = 0.9;
    fw.sample(s);
    // Send all but the last 3 bytes: a frame cut mid-flight.
    EXPECT_TRUE(writeAll(p.w, fw.data(), fw.size() - 3));
    p.closeWriter();

    StreamSource src(p.r, 1, quickConfig());
    TickBatch b;
    EXPECT_FALSE(src.pull(0, b));
    EXPECT_TRUE(src.truncated());
}

TEST(StreamSourceDeathTest, HelloStreamMismatchIsFatal)
{
    EXPECT_DEATH(
        {
            Pipe p;
            FrameWriter fw = helloFor(5); // cluster expects 2
            p.send(fw);
            p.closeWriter();
            StreamSource src(p.r, 2, quickConfig());
            TickBatch b;
            src.pull(0, b);
        },
        "streams");
}

/** Scripted in-process source: stream @p vm goes dark for a window. */
class WindowSource : public TelemetrySource
{
  public:
    WindowSource(size_t streams, size_t dark_from, size_t dark_stream)
        : streams_(streams), dark_from_(dark_from),
          dark_stream_(dark_stream)
    {
    }

    size_t streams() const override { return streams_; }

    bool pull(size_t tick, TickBatch &batch) override
    {
        batch.reset(streams_, tick);
        for (size_t i = 0; i < streams_; ++i) {
            if (i == dark_stream_ && tick >= dark_from_)
                continue;
            batch.present[i] = 1;
            batch.demand[i] = 0.3;
            ++batch.samples;
        }
        return true;
    }

  private:
    size_t streams_;
    size_t dark_from_;
    size_t dark_stream_;
};

TEST(ClusterFeed, HoldLastThenConservativeFallback)
{
    sim::Cluster cluster = nps_test::smallCluster(0.3);
    const size_t n = cluster.numVms();
    WindowSource src(n, /*dark_from=*/5, /*dark_stream=*/0);

    StreamConfig cfg;
    cfg.hold_last = true;
    cfg.hold_ticks = 3;
    cfg.fallback_util = 0.1;
    ClusterFeed feed(cluster, src, cfg);
    ASSERT_TRUE(cluster.externalDemand());

    for (size_t t = 0; t < 10; ++t) {
        ASSERT_TRUE(feed.beginTick(t));
        double staged = cluster.stagedDemand()[0];
        if (t < 5)
            EXPECT_EQ(staged, 0.3) << "tick " << t; // live sample
        else if (t < 8)
            EXPECT_EQ(staged, 0.3) << "tick " << t; // held (miss 1..3)
        else
            EXPECT_EQ(staged, 0.1) << "tick " << t; // fallback (miss >3)
    }

    const ClusterFeed::Stats &st = feed.stats();
    EXPECT_EQ(st.ticks, 10u);
    EXPECT_EQ(st.missing_samples, 5u);
    EXPECT_EQ(st.held_samples, 3u);
    EXPECT_EQ(st.fallback_samples, 2u);
    EXPECT_EQ(st.staged_samples, 10u * n - 5u);

    // The silence oracle tracks the current and previous tick only.
    long dark_server = cluster.serverOf(0);
    EXPECT_TRUE(feed.silent(dark_server, 9));
    EXPECT_TRUE(feed.silent(dark_server, 8));
    EXPECT_EQ(feed.silentCount(9), 1u);
    EXPECT_EQ(feed.silentCount(8), 1u);
    for (long sid = 0; sid < static_cast<long>(cluster.numServers());
         ++sid) {
        if (sid != dark_server) {
            EXPECT_FALSE(feed.silent(sid, 9)) << "server " << sid;
            EXPECT_FALSE(feed.silent(sid, 8)) << "server " << sid;
        }
    }
}

TEST(ClusterFeed, FallbackImmediatelyWhenHoldDisabled)
{
    sim::Cluster cluster = nps_test::smallCluster(0.3);
    WindowSource src(cluster.numVms(), /*dark_from=*/2,
                     /*dark_stream=*/1);

    StreamConfig cfg;
    cfg.hold_last = false;
    cfg.fallback_util = 0.05;
    ClusterFeed feed(cluster, src, cfg);

    for (size_t t = 0; t < 4; ++t)
        ASSERT_TRUE(feed.beginTick(t));
    EXPECT_EQ(cluster.stagedDemand()[1], 0.05);
    EXPECT_EQ(feed.stats().held_samples, 0u);
    EXPECT_EQ(feed.stats().fallback_samples, 2u);
}

TEST(ClusterFeedDeathTest, NegativeOrNonFiniteFallbackIsFatal)
{
    // The fallback is staged as demand: a negative one would abort the
    // plant on the first silent tick, a NaN would poison every sum.
    for (double bad : {-0.5, kNaN, kInf}) {
        EXPECT_DEATH(
            {
                sim::Cluster cluster = nps_test::smallCluster(0.3);
                WindowSource src(cluster.numVms(), 2, 1);
                StreamConfig cfg;
                cfg.hold_last = false;
                cfg.fallback_util = bad;
                ClusterFeed feed(cluster, src, cfg);
            },
            "fallback_util .* is not a finite, non-negative demand")
            << bad;
    }
}

} // namespace
