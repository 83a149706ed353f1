#include "stream/stream_source.h"

#include <cerrno>
#include <cmath>
#include <poll.h>
#include <unistd.h>

#include "util/logging.h"

namespace nps {
namespace stream {

StreamSource::StreamSource(int fd, size_t streams,
                           const StreamConfig &config)
    : fd_(fd), owns_fd_(fd > 2), expected_(streams), config_(config)
{
    if (fd_ < 0)
        util::fatal("stream: invalid telemetry descriptor %d", fd_);
    if (expected_ == 0)
        util::fatal("stream: a telemetry session needs at least one "
                    "stream");
}

StreamSource::~StreamSource()
{
    if (owns_fd_)
        ::close(fd_);
}

StreamSource::ReadResult
StreamSource::readMore()
{
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int timeout = config_.timeout_ms == 0
                      ? -1
                      : static_cast<int>(config_.timeout_ms);
    for (;;) {
        int rc = ::poll(&pfd, 1, timeout);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            eof_ = true;
            return ReadResult::Eof;
        }
        if (rc == 0)
            return ReadResult::Timeout;
        break;
    }
    // POLLHUP with pending data still reads it; read() returning 0 is
    // the definitive end-of-stream either way.
    uint8_t buf[65536];
    ssize_t n;
    do {
        n = ::read(fd_, buf, sizeof buf);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
        eof_ = true;
        return ReadResult::Eof;
    }
    decoder_.feed(buf, static_cast<size_t>(n));
    return ReadResult::Data;
}

void
StreamSource::drainFrames()
{
    Frame f;
    while (decoder_.next(f)) {
        switch (f.type) {
        case FrameType::Hello:
            if (f.hello.version > kProtocolVersion)
                util::fatal("stream: peer speaks NPSF v%u, this build "
                            "understands v%u",
                            f.hello.version, kProtocolVersion);
            if (f.hello.streams != expected_)
                util::fatal("stream: peer advertises %u streams, the "
                            "cluster has %zu VMs",
                            f.hello.streams, expected_);
            hello_ = f.hello;
            got_hello_ = true;
            break;
        case FrameType::Sample: {
            if (f.sample.stream >= expected_) {
                ++ingest_.bad_stream;
                break;
            }
            // Fail closed: a negative or non-finite demand would abort
            // the plant or poison every sum. Dropped, the stream misses
            // this tick and the feed's hold/fallback ladder serves it.
            if (!std::isfinite(f.sample.demand) || f.sample.demand < 0.0) {
                ++ingest_.bad_value;
                break;
            }
            if (f.sample.tick < cursor_) {
                ++ingest_.late;
                break;
            }
            if (f.sample.tick >=
                cursor_ + static_cast<uint64_t>(config_.max_pending)) {
                ++ingest_.overflow;
                break;
            }
            Pending &p = pending_[f.sample.tick];
            if (p.present.empty()) {
                p.present.assign(expected_, 0);
                p.demand.assign(expected_, 0.0);
            }
            if (p.present[f.sample.stream]) {
                // Last write wins; duplicates are counted, not fatal.
                ++ingest_.duplicates;
            } else {
                p.present[f.sample.stream] = 1;
                ++p.count;
                ++ingest_.samples;
            }
            p.demand[f.sample.stream] = f.sample.demand;
            ingest_.lag_samples.push_back(
                static_cast<uint32_t>(f.sample.tick - cursor_));
            break;
        }
        case FrameType::TickEnd:
            if (!have_closed_ || f.tick > closed_through_) {
                closed_through_ = f.tick;
                have_closed_ = true;
            }
            break;
        case FrameType::Bye:
            got_bye_ = true;
            // BYE(final) asserts everything before @c final was sent in
            // full: close through final - 1.
            if (f.tick > 0 &&
                (!have_closed_ || f.tick - 1 > closed_through_)) {
                closed_through_ = f.tick - 1;
                have_closed_ = true;
            }
            break;
        }
    }
}

bool
StreamSource::pull(size_t tick, TickBatch &batch)
{
    cursor_ = tick;
    drainFrames();
    while (!tickClosed(tick) && !eof_) {
        ReadResult r = readMore();
        drainFrames();
        if (r == ReadResult::Timeout && !tickClosed(tick)) {
            // The peer is alive but the barrier is overdue: deliver the
            // tick as-is. Missing streams degrade via the feed's
            // silent-stream policy — precisely a lost-telemetry fault,
            // not a reason to stop the run.
            ++ingest_.timeouts;
            break;
        }
    }
    if (!tickClosed(tick) && eof_) {
        // End of feed. Only barrier-complete ticks are delivered, so
        // the run's output is a strict prefix of the uninterrupted
        // run's, even when the peer died mid-tick.
        return false;
    }
    batch.reset(expected_, tick);
    auto it = pending_.find(tick);
    if (it != pending_.end()) {
        batch.present = std::move(it->second.present);
        batch.demand = std::move(it->second.demand);
        batch.samples = it->second.count;
    }
    pending_.erase(pending_.begin(),
                   pending_.upper_bound(static_cast<uint64_t>(tick)));
    return true;
}

} // namespace stream
} // namespace nps
