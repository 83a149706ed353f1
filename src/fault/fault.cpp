#include "fault/fault.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "util/logging.h"
#include "util/random.h"
#include "util/script.h"

namespace nps {
namespace fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Outage: return "outage";
    case FaultKind::DropBudget: return "drop";
    case FaultKind::StaleBudget: return "stale";
    case FaultKind::StuckPState: return "stuck";
    case FaultKind::UtilNoise: return "noise";
    case FaultKind::UtilFreeze: return "freeze";
    }
    return "?";
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::GM: return "gm";
    case Level::EM: return "em";
    case Level::SM: return "sm";
    case Level::EC: return "ec";
    case Level::VMC: return "vmc";
    case Level::CAP: return "cap";
    }
    return "?";
}

const char *
linkName(Link link)
{
    switch (link) {
    case Link::GmToEm: return "gm-em";
    case Link::GmToSm: return "gm-sm";
    case Link::EmToSm: return "em-sm";
    case Link::GmToGm: return "gm-gm";
    }
    return "?";
}

bool
linkFromName(const std::string &name, Link &out)
{
    for (Link l : kAllLinks) {
        if (name == linkName(l)) {
            out = l;
            return true;
        }
    }
    return false;
}

namespace {

std::string
idText(long id)
{
    return id == FaultEvent::kAll ? "*" : std::to_string(id);
}

std::string
numText(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

Level
levelFromName(const std::string &name)
{
    for (Level l : {Level::GM, Level::EM, Level::SM, Level::EC,
                    Level::VMC, Level::CAP}) {
        if (name == levelName(l))
            return l;
    }
    util::fatal("faults: unknown level '%s'", name.c_str());
}

long
idFromText(const util::ScriptClause &c, size_t i)
{
    if (c.tok[i] == "*")
        return FaultEvent::kAll;
    uint64_t id = 0;
    if (!util::parseUnsigned(c.tok[i], id) ||
        id > static_cast<uint64_t>(LONG_MAX))
        util::fatal("faults: bad target id '%s' in '%s'", c.tok[i].c_str(),
                    c.raw.c_str());
    return static_cast<long>(id);
}

/** Parse one clause into an event. */
FaultEvent
parseClause(const util::ScriptClause &c)
{
    const std::vector<std::string> &tok = c.tok;
    auto want = [&](size_t lo, size_t hi) {
        if (tok.size() < lo || tok.size() > hi)
            util::fatal("faults: malformed clause '%s'", c.raw.c_str());
    };
    FaultEvent e;
    const std::string &verb = tok[0];
    if (verb == "outage") {
        want(5, 5);
        e.kind = FaultKind::Outage;
        e.level = levelFromName(tok[1]);
        e.id = idFromText(c, 2);
        e.start = c.tick(3);
        e.end = c.tick(4);
    } else if (verb == "drop" || verb == "stale") {
        want(5, verb == "drop" ? 6 : 5);
        e.kind = verb == "drop" ? FaultKind::DropBudget
                                : FaultKind::StaleBudget;
        if (!linkFromName(tok[1], e.link))
            util::fatal("faults: unknown link '%s'", tok[1].c_str());
        e.id = idFromText(c, 2);
        e.start = c.tick(3);
        e.end = c.tick(4);
        if (tok.size() == 6)
            e.magnitude = c.number(5);
    } else if (verb == "stuck" || verb == "freeze") {
        want(4, 4);
        e.kind = verb == "stuck" ? FaultKind::StuckPState
                                 : FaultKind::UtilFreeze;
        e.id = idFromText(c, 1);
        e.start = c.tick(2);
        e.end = c.tick(3);
    } else if (verb == "noise") {
        want(5, 5);
        e.kind = FaultKind::UtilNoise;
        e.id = idFromText(c, 1);
        e.start = c.tick(2);
        e.end = c.tick(3);
        e.magnitude = c.number(4);
    } else {
        util::fatal("faults: unknown fault verb '%s'", verb.c_str());
    }
    if (e.end < e.start)
        util::fatal("faults: event ends before it starts: '%s'",
                    c.raw.c_str());
    return e;
}

} // namespace

std::string
FaultEvent::toText() const
{
    std::ostringstream out;
    out << faultKindName(kind) << ' ';
    switch (kind) {
    case FaultKind::Outage:
        out << levelName(level) << ' ' << idText(id) << ' ' << start
            << ' ' << end;
        break;
    case FaultKind::DropBudget:
        out << linkName(link) << ' ' << idText(id) << ' ' << start << ' '
            << end << ' ' << numText(magnitude);
        break;
    case FaultKind::StaleBudget:
        out << linkName(link) << ' ' << idText(id) << ' ' << start << ' '
            << end;
        break;
    case FaultKind::StuckPState:
    case FaultKind::UtilFreeze:
        out << idText(id) << ' ' << start << ' ' << end;
        break;
    case FaultKind::UtilNoise:
        out << idText(id) << ' ' << start << ' ' << end << ' '
            << numText(magnitude);
        break;
    }
    return out.str();
}

bool
RandomFaultConfig::any() const
{
    return outages > 0 || drops > 0 || stales > 0 || stucks > 0 ||
           noises > 0 || freezes > 0;
}

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events))
{
}

FaultSchedule
FaultSchedule::parse(const std::string &text)
{
    FaultSchedule out;
    for (const util::ScriptClause &c : util::readClauses(text, "faults"))
        out.add(parseClause(c));
    return out;
}

FaultSchedule
FaultSchedule::randomized(const RandomFaultConfig &cfg, uint64_t seed,
                          size_t num_servers, size_t num_enclosures)
{
    if (num_servers == 0)
        util::fatal("faults: randomized campaign over zero servers");
    FaultSchedule out;
    util::Rng rng(seed, "fault-campaign");
    size_t horizon = cfg.horizon > 0 ? cfg.horizon : 1;

    auto window = [&](unsigned mean_len) {
        size_t start = 1 + rng.below(horizon);
        size_t len = 1 + rng.below(std::max(1u, 2 * mean_len));
        return std::pair<size_t, size_t>(start, start + len);
    };
    auto pickLink = [&](FaultEvent &e) {
        // Links into enclosures exist only when enclosures do.
        switch (num_enclosures > 0 ? rng.below(3) : 1) {
        case 0:
            e.link = Link::GmToEm;
            e.id = static_cast<long>(rng.below(num_enclosures));
            break;
        case 1:
            e.link = Link::GmToSm;
            e.id = static_cast<long>(rng.below(num_servers));
            break;
        default:
            e.link = Link::EmToSm;
            e.id = static_cast<long>(rng.below(num_servers));
            break;
        }
    };

    for (unsigned i = 0; i < cfg.outages; ++i) {
        FaultEvent e;
        e.kind = FaultKind::Outage;
        // Per-server levels dominate the draw so campaigns over large
        // fleets exercise many distinct controllers.
        switch (rng.below(num_enclosures > 0 ? 5 : 4)) {
        case 0: e.level = Level::GM; e.id = 0; break;
        case 1: e.level = Level::VMC; e.id = 0; break;
        case 2:
            e.level = Level::SM;
            e.id = static_cast<long>(rng.below(num_servers));
            break;
        case 3:
            e.level = Level::EC;
            e.id = static_cast<long>(rng.below(num_servers));
            break;
        default:
            e.level = Level::EM;
            e.id = static_cast<long>(rng.below(num_enclosures));
            break;
        }
        std::tie(e.start, e.end) = window(cfg.outage_len);
        out.add(e);
    }
    for (unsigned i = 0; i < cfg.drops; ++i) {
        FaultEvent e;
        e.kind = FaultKind::DropBudget;
        pickLink(e);
        std::tie(e.start, e.end) = window(cfg.drop_len);
        e.magnitude = cfg.drop_prob;
        out.add(e);
    }
    for (unsigned i = 0; i < cfg.stales; ++i) {
        FaultEvent e;
        e.kind = FaultKind::StaleBudget;
        pickLink(e);
        std::tie(e.start, e.end) = window(cfg.stale_len);
        out.add(e);
    }
    for (unsigned i = 0; i < cfg.stucks; ++i) {
        FaultEvent e;
        e.kind = FaultKind::StuckPState;
        e.id = static_cast<long>(rng.below(num_servers));
        std::tie(e.start, e.end) = window(cfg.stuck_len);
        out.add(e);
    }
    for (unsigned i = 0; i < cfg.noises; ++i) {
        FaultEvent e;
        e.kind = FaultKind::UtilNoise;
        e.id = static_cast<long>(rng.below(num_servers));
        std::tie(e.start, e.end) = window(cfg.noise_len);
        e.magnitude = cfg.noise_sigma;
        out.add(e);
    }
    for (unsigned i = 0; i < cfg.freezes; ++i) {
        FaultEvent e;
        e.kind = FaultKind::UtilFreeze;
        e.id = static_cast<long>(rng.below(num_servers));
        std::tie(e.start, e.end) = window(cfg.freeze_len);
        out.add(e);
    }
    return out;
}

void
FaultSchedule::add(const FaultEvent &event)
{
    events_.push_back(event);
}

void
FaultSchedule::merge(const FaultSchedule &other)
{
    events_.insert(events_.end(), other.events_.begin(),
                   other.events_.end());
}

size_t
FaultSchedule::lastEnd() const
{
    size_t last = 0;
    for (const auto &e : events_)
        last = std::max(last, e.end);
    return last;
}

std::string
FaultSchedule::toText(const std::string &sep) const
{
    std::string out;
    for (size_t i = 0; i < events_.size(); ++i) {
        if (i > 0)
            out += sep;
        out += events_[i].toText();
    }
    return out;
}

} // namespace fault
} // namespace nps
