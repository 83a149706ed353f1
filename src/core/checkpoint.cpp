/**
 * @file
 * Coordinator checkpoint/restore: gathers every component's saveState()
 * into one versioned snapshot and overlays a snapshot onto a
 * freshly-built Coordinator (docs/CHECKPOINTING.md).
 *
 * Section layout (names are the restore contract):
 *   engine        clock + actor-roster consistency check
 *   cluster       VM placement, per-server/per-VM state, last tick
 *   metrics       the MetricsCollector accumulators and series
 *   ec/<i> sm/<i> em/<i> gm/<i> cap/<i> mm/<i>   per controller
 *   vmc           the consolidation controller
 *   controllog    mirrored control-plane events with their trace ids
 *                 (when the control log or the cascade is enabled)
 *   obs/metrics obs/trace   observability instruments (when enabled)
 *
 * The FaultInjector is deliberately absent: it is immutable after
 * construction and every query is a pure function of (seed, kind,
 * target, tick), so rebuilding it from the same config reproduces the
 * campaign exactly — fault injection replays identically across the
 * resume boundary. The EngineProfiler is also absent: it measures wall
 * clock, which is not simulation state.
 */

#include <cstdio>

#include "ckpt/snapshot.h"
#include "controllers/efficiency.h"
#include "controllers/electrical_capper.h"
#include "controllers/enclosure_manager.h"
#include "controllers/group_manager.h"
#include "controllers/memory_manager.h"
#include "controllers/server_manager.h"
#include "controllers/vm_controller.h"
#include "core/coordinator.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace nps {
namespace core {

namespace {

std::string
indexed(const char *prefix, size_t i)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s/%zu", prefix, i);
    return buf;
}

/**
 * Open section @p name for restore, with a mismatch diagnosis when the
 * snapshot and the rebuilt Coordinator disagree about its existence.
 */
ckpt::SectionReader
requireSection(const ckpt::SnapshotReader &snap, const std::string &name)
{
    if (!snap.has(name))
        util::fatal("checkpoint %s: section '%s' missing — the snapshot "
                    "was taken with a different config/topology than this "
                    "run rebuilt",
                    snap.path().c_str(), name.c_str());
    return snap.section(name);
}

} // namespace

void
Coordinator::saveState(ckpt::SnapshotWriter &snap) const
{
    engine_->saveState(snap.section("engine"));
    cluster_->saveState(snap.section("cluster"));
    metrics_.saveState(snap.section("metrics"));

    for (size_t i = 0; i < ecs_.size(); ++i)
        ecs_[i]->saveState(snap.section(indexed("ec", i)));
    for (size_t i = 0; i < sms_.size(); ++i)
        sms_[i]->saveState(snap.section(indexed("sm", i)));
    for (size_t i = 0; i < ems_.size(); ++i)
        ems_[i]->saveState(snap.section(indexed("em", i)));
    for (size_t i = 0; i < gms_.size(); ++i)
        gms_[i]->saveState(snap.section(indexed("gm", i)));
    for (size_t i = 0; i < caps_.size(); ++i)
        caps_[i]->saveState(snap.section(indexed("cap", i)));
    for (size_t i = 0; i < mems_.size(); ++i)
        mems_[i]->saveState(snap.section(indexed("mm", i)));
    if (vmc_)
        vmc_->saveState(snap.section("vmc"));

    if (control_log_)
        control_log_->saveState(snap.section("controllog"));
    if (obs_ && obs_->metrics())
        obs_->metrics()->saveState(snap.section("obs/metrics"));
    if (obs_ && obs_->trace())
        obs_->trace()->saveState(snap.section("obs/trace"));
}

void
Coordinator::loadState(const ckpt::SnapshotReader &snap)
{
    {
        auto r = requireSection(snap, "engine");
        engine_->loadState(r);
        r.expectEnd();
    }
    {
        auto r = requireSection(snap, "cluster");
        cluster_->loadState(r);
        r.expectEnd();
    }
    {
        auto r = requireSection(snap, "metrics");
        metrics_.loadState(r);
        r.expectEnd();
    }

    auto restoreAll = [&snap](const char *prefix, auto &vec) {
        for (size_t i = 0; i < vec.size(); ++i) {
            auto r = requireSection(snap, indexed(prefix, i));
            vec[i]->loadState(r);
            r.expectEnd();
        }
        // One extra section of this kind in the snapshot means the run
        // that wrote it had more controllers than this rebuild.
        std::string next = indexed(prefix, vec.size());
        if (snap.has(next))
            util::fatal("checkpoint %s: unexpected section '%s' — the "
                        "snapshot has more %s controllers than this "
                        "config rebuilds",
                        snap.path().c_str(), next.c_str(), prefix);
    };
    restoreAll("ec", ecs_);
    restoreAll("sm", sms_);
    restoreAll("em", ems_);
    restoreAll("gm", gms_);
    restoreAll("cap", caps_);
    restoreAll("mm", mems_);

    if (vmc_) {
        auto r = requireSection(snap, "vmc");
        vmc_->loadState(r);
        r.expectEnd();
    } else if (snap.has("vmc")) {
        util::fatal("checkpoint %s: snapshot has a VMC section but this "
                    "config disables the VMC",
                    snap.path().c_str());
    }

    if (control_log_) {
        auto r = requireSection(snap, "controllog");
        control_log_->loadState(r);
        r.expectEnd();
    }
    if (obs_ && obs_->metrics()) {
        auto r = requireSection(snap, "obs/metrics");
        obs_->metrics()->loadState(r);
        r.expectEnd();
    }
    if (obs_ && obs_->trace()) {
        auto r = requireSection(snap, "obs/trace");
        obs_->trace()->loadState(r);
        r.expectEnd();
    }
    // Run-summary gauges mirror summary(); refresh them so a metrics
    // export taken right after restore matches the original run's.
    updateRunGauges();
}

} // namespace core
} // namespace nps
