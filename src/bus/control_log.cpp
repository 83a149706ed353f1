#include "bus/control_log.h"

#include <algorithm>

#include "util/csv.h"
#include "util/logging.h"

namespace nps {
namespace bus {

ControlPlaneLog::LinkLog *
ControlPlaneLog::channel(const std::string &name, ChannelKind kind)
{
    for (const auto &l : links_) {
        if (l->name == name)
            util::fatal("control log: link '%s' registered twice",
                        name.c_str());
    }
    links_.push_back(std::make_unique<LinkLog>());
    links_.back()->name = name;
    links_.back()->kind = kind;
    links_.back()->traced_only = traced_only_;
    return links_.back().get();
}

size_t
ControlPlaneLog::totalEvents() const
{
    size_t n = 0;
    for (const auto &l : links_)
        n += l->events.size();
    return n;
}

size_t
ControlPlaneLog::tracedEvents() const
{
    size_t n = 0;
    for (const auto &l : links_) {
        for (const auto &e : l->events)
            n += e.trace != 0 ? 1 : 0;
    }
    return n;
}

std::vector<ControlPlaneLog::Entry>
ControlPlaneLog::merged(View view) const
{
    const bool traced = view == View::Traced;
    std::vector<Entry> out;
    out.reserve(traced ? tracedEvents() : totalEvents());
    for (const auto &l : links_) {
        for (const auto &e : l->events) {
            if (!traced || e.trace != 0)
                out.push_back({l.get(), &e});
        }
    }
    std::sort(out.begin(), out.end(), [](const Entry &a, const Entry &b) {
        if (a.event->tick != b.event->tick)
            return a.event->tick < b.event->tick;
        if (a.link->name != b.link->name)
            return a.link->name < b.link->name;
        return a.event->seq < b.event->seq;
    });
    return out;
}

void
ControlPlaneLog::writeCsv(std::ostream &out) const
{
    util::CsvWriter w(out);
    w.row("tick", "link", "kind", "seq", "value", "aux", "delivered",
          "stale");
    for (const Entry &e : merged()) {
        w.row(static_cast<unsigned long>(e.event->tick), e.link->name,
              channelKindName(e.event->kind),
              static_cast<unsigned long>(e.event->seq), e.event->value,
              e.event->aux, e.event->delivered ? 1 : 0,
              e.event->stale ? 1 : 0);
    }
}

void
ControlPlaneLog::writeCascadeCsv(std::ostream &out) const
{
    util::CsvWriter w(out);
    w.row("tick", "link", "kind", "seq", "trace", "root_tick",
          "hop_latency", "value", "delivered");
    for (const Entry &e : merged(View::Traced)) {
        // The view holds only stamped events (trace = root tick + 1,
        // never 0), so the subtraction cannot underflow.
        unsigned long root = static_cast<unsigned long>(e.event->trace - 1);
        w.row(static_cast<unsigned long>(e.event->tick), e.link->name,
              channelKindName(e.event->kind),
              static_cast<unsigned long>(e.event->seq),
              static_cast<unsigned long>(e.event->trace), root,
              static_cast<unsigned long>(e.event->tick - root),
              e.event->value, e.event->delivered ? 1 : 0);
    }
}

void
ControlPlaneLog::saveState(ckpt::SectionWriter &w) const
{
    w.putU64(links_.size());
    for (const auto &l : links_) {
        w.putString(l->name);
        w.putU32(static_cast<uint32_t>(l->kind));
        w.putU64(l->events.size());
        for (const auto &e : l->events) {
            w.putU64(e.tick);
            w.putU64(e.seq);
            w.putU32(static_cast<uint32_t>(e.kind));
            w.putU32(e.trace);
            w.putDouble(e.value);
            w.putDouble(e.aux);
            w.putBool(e.delivered);
            w.putBool(e.stale);
        }
    }
}

void
ControlPlaneLog::loadState(ckpt::SectionReader &r)
{
    uint64_t n = r.getU64();
    if (n != links_.size())
        util::fatal("control log restore: snapshot has %llu links, "
                    "rebuilt wiring has %zu — config/topology mismatch",
                    static_cast<unsigned long long>(n), links_.size());
    for (uint64_t i = 0; i < n; ++i) {
        std::string name = r.getString();
        auto kind = static_cast<ChannelKind>(r.getU32());
        LinkLog *target = nullptr;
        for (const auto &l : links_) {
            if (l->name == name) {
                target = l.get();
                break;
            }
        }
        if (!target)
            util::fatal("control log restore: snapshot link '%s' not "
                        "present in rebuilt wiring — config/topology "
                        "mismatch",
                        name.c_str());
        if (target->kind != kind)
            util::fatal("control log restore: link '%s' kind mismatch",
                        name.c_str());
        uint64_t events = r.getU64();
        target->events.clear();
        target->events.reserve(events);
        for (uint64_t j = 0; j < events; ++j) {
            ControlEvent e;
            e.tick = static_cast<size_t>(r.getU64());
            e.seq = r.getU64();
            e.kind = static_cast<ChannelKind>(r.getU32());
            e.trace = r.getU32();
            e.value = r.getDouble();
            e.aux = r.getDouble();
            e.delivered = r.getBool();
            e.stale = r.getBool();
            target->events.push_back(e);
        }
    }
}

} // namespace bus
} // namespace nps
