#include "fault/netem/netem.h"

#include <algorithm>
#include <climits>
#include <cstdio>

#include "util/logging.h"
#include "util/random.h"
#include "util/script.h"

namespace nps {
namespace fault {
namespace netem {

const char *
netemKindName(NetemKind kind)
{
    switch (kind) {
    case NetemKind::Delay: return "delay";
    case NetemKind::Duplicate: return "dup";
    case NetemKind::Corrupt: return "corrupt";
    case NetemKind::Partition: return "partition";
    }
    return "?";
}

namespace {

std::string
targetText(const NetemEvent &e)
{
    if (e.all)
        return "*";
    if (e.by_rank)
        return "rank:" + std::to_string(e.rank);
    return linkName(e.link);
}

} // namespace

std::string
NetemEvent::toText() const
{
    char buf[160];
    std::string target = targetText(*this);
    switch (kind) {
    case NetemKind::Delay:
        std::snprintf(buf, sizeof(buf), "delay %s %zu %zu %g %g",
                      target.c_str(), start, end, a, b);
        break;
    case NetemKind::Duplicate:
        std::snprintf(buf, sizeof(buf), "dup %s %zu %zu %g",
                      target.c_str(), start, end, a);
        break;
    case NetemKind::Corrupt:
        std::snprintf(buf, sizeof(buf), "corrupt %s %zu %zu %g",
                      target.c_str(), start, end, a);
        break;
    case NetemKind::Partition:
        std::snprintf(buf, sizeof(buf), "partition %s %zu %zu",
                      target.c_str(), start, end);
        break;
    }
    return buf;
}

NetemSchedule::NetemSchedule(std::vector<NetemEvent> events)
    : events_(std::move(events))
{
}

namespace {

void
parseTarget(const util::ScriptClause &c, NetemEvent *e)
{
    const std::string &t = c.tok[1];
    if (t == "*") {
        e->all = true;
        return;
    }
    if (t.rfind("rank:", 0) == 0) {
        e->by_rank = true;
        uint64_t rank = 0;
        if (!util::parseUnsigned(t.substr(5), rank) || rank > INT_MAX)
            util::fatal("netem script: bad rank '%s' in '%s'", t.c_str(),
                        c.raw.c_str());
        e->rank = static_cast<int>(rank);
        return;
    }
    if (!linkFromName(t, e->link))
        util::fatal("netem script: unknown target '%s' in '%s' "
                    "(want a link class, rank:N or *)",
                    t.c_str(), c.raw.c_str());
}

NetemEvent
parseClause(const util::ScriptClause &c)
{
    const std::vector<std::string> &tok = c.tok;
    NetemEvent e;
    const std::string &verb = tok[0];
    size_t min_tok = 4, max_tok = 4;
    if (verb == "delay") {
        e.kind = NetemKind::Delay;
        min_tok = 5;
        max_tok = 6;
    } else if (verb == "dup") {
        e.kind = NetemKind::Duplicate;
        e.a = 1.0;
        max_tok = 5;
    } else if (verb == "corrupt") {
        e.kind = NetemKind::Corrupt;
        e.a = 1.0;
        max_tok = 5;
    } else if (verb == "partition") {
        e.kind = NetemKind::Partition;
    } else {
        util::fatal("netem script: unknown verb '%s' in '%s' "
                    "(want delay|dup|corrupt|partition)",
                    verb.c_str(), c.raw.c_str());
    }
    if (tok.size() < min_tok || tok.size() > max_tok)
        util::fatal("netem script: wrong arity for '%s' in '%s'",
                    verb.c_str(), c.raw.c_str());
    parseTarget(c, &e);
    e.start = c.tick(2);
    e.end = c.tick(3);
    if (e.end <= e.start)
        util::fatal("netem script: empty interval [%zu, %zu) in '%s'",
                    e.start, e.end, c.raw.c_str());
    if (tok.size() > 4)
        e.a = c.number(4);
    if (tok.size() > 5)
        e.b = c.number(5);
    if (e.kind == NetemKind::Delay) {
        if (e.a < 0.0 || e.b < 0.0)
            util::fatal("netem script: negative delay in '%s'",
                        c.raw.c_str());
    } else if (e.kind != NetemKind::Partition) {
        if (e.a < 0.0 || e.a > 1.0)
            util::fatal("netem script: probability %g outside [0,1] "
                        "in '%s'",
                        e.a, c.raw.c_str());
    }
    return e;
}

} // namespace

NetemSchedule
NetemSchedule::parse(const std::string &text)
{
    NetemSchedule out;
    for (const util::ScriptClause &c :
         util::readClauses(text, "netem script"))
        out.add(parseClause(c));
    return out;
}

void
NetemSchedule::add(const NetemEvent &event)
{
    events_.push_back(event);
}

size_t
NetemSchedule::lastEnd() const
{
    size_t last = 0;
    for (const auto &e : events_)
        last = std::max(last, e.end);
    return last;
}

std::string
NetemSchedule::toText(const std::string &sep) const
{
    std::string out;
    for (const auto &e : events_) {
        if (!out.empty())
            out += sep;
        out += e.toText();
    }
    return out;
}

namespace {

/** SplitMix64 finalizer: decorrelates the packed query key. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Counter-mode stream key for one (kind, link, seq) query. Keyed per
 * send, not per tick: a send keeps its verdict whether it is resolved
 * by rank 0 or rank 3, on the engine thread or a worker.
 */
uint64_t
queryKey(uint64_t seed, NetemKind kind, uint32_t wire_id, uint64_t seq)
{
    uint64_t k = mix(seed ^ (static_cast<uint64_t>(kind) << 56));
    k = mix(k ^ wire_id);
    return mix(k ^ seq);
}

} // namespace

NetemModel::NetemModel(NetemSchedule schedule, uint64_t seed,
                       size_t deadline_ticks)
    : schedule_(std::move(schedule)), seed_(seed),
      deadline_(deadline_ticks)
{
    for (const auto &e : schedule_.events())
        by_kind_[static_cast<size_t>(e.kind)].push_back(e);
}

const NetemEvent *
NetemModel::find(NetemKind kind, Link cls, int owner_rank,
                 size_t tick) const
{
    for (const auto &e : by_kind_[static_cast<size_t>(kind)]) {
        if (e.activeAt(tick) && e.matches(cls, owner_rank))
            return &e;
    }
    return nullptr;
}

bool
NetemModel::partitioned(Link cls, int owner_rank, size_t tick) const
{
    return find(NetemKind::Partition, cls, owner_rank, tick) != nullptr;
}

bool
NetemModel::rankPartitioned(int rank, size_t tick) const
{
    for (const auto &e :
         by_kind_[static_cast<size_t>(NetemKind::Partition)]) {
        if (!e.activeAt(tick))
            continue;
        if (e.all || (e.by_rank && e.rank == rank))
            return true;
    }
    return false;
}

size_t
NetemModel::delayTicks(Link cls, int owner_rank, uint32_t wire_id,
                       uint64_t seq, size_t tick) const
{
    const NetemEvent *e = find(NetemKind::Delay, cls, owner_rank, tick);
    if (!e)
        return 0;
    size_t base = static_cast<size_t>(e->a);
    size_t jitter = static_cast<size_t>(e->b);
    if (jitter == 0)
        return base;
    util::Rng rng(queryKey(seed_, NetemKind::Delay, wire_id, seq));
    return base + static_cast<size_t>(rng.below(jitter + 1));
}

bool
NetemModel::duplicated(Link cls, int owner_rank, uint32_t wire_id,
                       uint64_t seq, size_t tick) const
{
    const NetemEvent *e =
        find(NetemKind::Duplicate, cls, owner_rank, tick);
    if (!e)
        return false;
    if (e->a >= 1.0)
        return true;
    util::Rng rng(queryKey(seed_, NetemKind::Duplicate, wire_id, seq));
    return rng.bernoulli(e->a);
}

bool
NetemModel::corrupted(Link cls, int owner_rank, uint32_t wire_id,
                      uint64_t seq, size_t tick, size_t *byte_off) const
{
    const NetemEvent *e = find(NetemKind::Corrupt, cls, owner_rank, tick);
    if (!e)
        return false;
    util::Rng rng(queryKey(seed_, NetemKind::Corrupt, wire_id, seq));
    if (e->a < 1.0 && !rng.bernoulli(e->a))
        return false;
    if (byte_off)
        *byte_off = static_cast<size_t>(rng.next());
    return true;
}

size_t
NetemModel::activeCount(size_t tick) const
{
    size_t n = 0;
    for (const auto &e : schedule_.events())
        n += e.activeAt(tick) ? 1 : 0;
    return n;
}

} // namespace netem
} // namespace fault
} // namespace nps
