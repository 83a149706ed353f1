#include "sim/fleetgen.h"

#include <algorithm>
#include <optional>

#include "trace/generator.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace nps {
namespace sim {

namespace {

/** Diurnal-phase sites the fleet cycles through: zones z and z + 24
 * share a business-hours phase (think time zones) but never a stream,
 * so traces stay a pure function of (seed, vm) at every fleet size. */
constexpr unsigned kPhaseSites = 24;

} // namespace

FleetGen::FleetGen(FleetSpec spec) : spec_(spec)
{
    if (spec_.enclosure_size == 0 || spec_.enclosures_per_rack == 0 ||
        spec_.racks_per_zone == 0)
        util::fatal("FleetGen: zero rack dimension");
    if (spec_.trace_length == 0 || spec_.ticks_per_day == 0)
        util::fatal("FleetGen: zero trace dimension");
    if (spec_.vm_fill < 0.0 || spec_.vm_fill > 1.0)
        util::fatal("FleetGen: vm_fill %.3f outside [0,1]", spec_.vm_fill);
    const unsigned zone = spec_.zoneSize();
    if (spec_.servers == 0 || spec_.servers % zone != 0)
        util::fatal("FleetGen: %u servers is not a whole number of "
                    "%u-server zones",
                    spec_.servers, zone);
    zones_ = spec_.servers / zone;
}

unsigned
FleetGen::numVms() const
{
    return static_cast<unsigned>(spec_.servers * spec_.vm_fill);
}

Topology
FleetGen::topology() const
{
    return Topology::tiered(zones_, spec_.racks_per_zone,
                            spec_.enclosures_per_rack,
                            spec_.enclosure_size,
                            spec_.standalone_per_rack);
}

std::vector<trace::UtilizationTrace>
FleetGen::traces(util::ThreadPool *pool) const
{
    trace::GeneratorConfig gen;
    gen.num_enterprises = kPhaseSites;
    gen.servers_per_enterprise = 1; // unused by generate(); must be > 0
    gen.trace_length = spec_.trace_length;
    gen.ticks_per_day = spec_.ticks_per_day;
    gen.seed = spec_.seed;
    trace::TraceGenerator tg(gen);

    const unsigned zone = spec_.zoneSize();
    const size_t count = numVms();
    // Each slot is a pure function of (seed, vm): the site is the VM's
    // zone folded onto the phase ring, the per-stream server index is
    // the global VM id, and the class cycles round-robin. Nothing
    // depends on `count`, so the fill can fan out over any pool with
    // bit-identical results.
    auto makeOne = [&](size_t vm) {
        const unsigned site =
            static_cast<unsigned>(vm / zone) % kPhaseSites;
        const auto wc = static_cast<trace::WorkloadClass>(
            vm % trace::kNumWorkloadClasses);
        trace::UtilizationTrace t = tg.generate(
            site, static_cast<unsigned>(vm), trace::defaultProfile(wc));
        std::vector<double> samples = t.samples();
        for (double &s : samples)
            s = std::min(1.0, std::max(0.0, s));
        return trace::UtilizationTrace(t.name(), t.workloadClass(),
                                       std::move(samples));
    };

    std::vector<std::optional<trace::UtilizationTrace>> slots(count);
    if (pool != nullptr && pool->size() > 1 && count > 1) {
        const util::ShardRange range(count, pool->size());
        pool->parallelFor(pool->size(), [&](size_t s) {
            for (size_t vm = range.lo(s); vm < range.hi(s); ++vm)
                slots[vm] = makeOne(vm);
        });
    } else {
        for (size_t vm = 0; vm < count; ++vm)
            slots[vm] = makeOne(vm);
    }

    std::vector<trace::UtilizationTrace> out;
    out.reserve(count);
    for (auto &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

} // namespace sim
} // namespace nps
