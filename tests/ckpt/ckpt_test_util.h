/**
 * @file
 * Shared plumbing for the checkpoint/restore suites: build a fully
 * instrumented simulation (controllers + recorder + control log with
 * its cascade view + obs),
 * snapshot it to bytes or disk, restore into a freshly built twin, and
 * collect every exported artifact for byte-exact comparison.
 */

#ifndef NPS_TESTS_CKPT_CKPT_TEST_UTIL_H
#define NPS_TESTS_CKPT_CKPT_TEST_UTIL_H

#include <gtest/gtest.h>

#include <algorithm>
#include <dirent.h>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "golden/golden_cases.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "sim/recorder.h"
#include "util/logging.h"

namespace nps_ckpt_test {

/** One resume-equality scenario. */
struct CkptCase
{
    nps::core::Scenario scenario = nps::core::Scenario::Coordinated;
    bool tree = false;        //!< run on the 3-level GM-of-GMs topology
    bool cap_mem = false;     //!< enable electrical cappers + memory mgrs
    const char *faults = nullptr; //!< fault script, or null = fault-free
    bool stream = false;      //!< online run: arms the budget leases
    /** Arm only the cascade: the control log is then traced-only. */
    bool cascade_only = false;
};

/** A built simulation: coordinator + attached recorder. */
struct Sim
{
    std::unique_ptr<nps::core::Coordinator> coord;
    std::shared_ptr<nps::sim::Recorder> recorder;
};

inline Sim
buildSim(const CkptCase &c, unsigned threads)
{
    nps::core::CoordinationConfig cfg =
        nps::core::scenarioConfig(c.scenario);
    cfg.budgets = nps::sim::BudgetConfig::paper201510();
    cfg.threads = threads;
    cfg.log_control_plane = !c.cascade_only;
    cfg.observability.metrics = true;
    cfg.observability.trace = true;
    cfg.observability.cascade = true;
    if (c.cap_mem) {
        cfg.enable_cap = true;
        cfg.enable_mem = true;
    }
    if (c.faults) {
        cfg.faults.script = c.faults;
        cfg.faults.enabled = true;
    }
    cfg.stream.enabled = c.stream;
    nps::sim::Topology topo =
        c.tree ? nps::sim::Topology::tiered(2, 3, 1, 8, 2)
               : nps::core::ExperimentRunner::topologyFor(
                     nps::trace::Mix::Mid60);

    Sim s;
    s.coord = std::make_unique<nps::core::Coordinator>(
        cfg, topo, nps::model::machineByName("BladeA"),
        nps_golden::goldenTraces(), /*keep_series=*/true);
    nps::sim::Recorder::Options opts;
    opts.stride = 2;
    s.recorder = std::make_shared<nps::sim::Recorder>(s.coord->cluster(),
                                                      opts);
    s.recorder->setFaultInjector(s.coord->faultInjector());
    s.coord->engine().addActor(s.recorder);
    return s;
}

/** Serialize the full state (coordinator + recorder) to bytes. */
inline std::string
snapshotBytes(const Sim &s)
{
    nps::ckpt::SnapshotWriter w;
    s.coord->saveState(w);
    s.recorder->saveState(w.section("recorder"));
    return w.serialize();
}

/** Restore @p s (freshly built, never run) from @p snap. */
inline void
restoreSim(Sim &s, const nps::ckpt::SnapshotReader &snap)
{
    s.coord->loadState(snap);
    nps::ckpt::SectionReader r = snap.section("recorder");
    s.recorder->loadState(r);
    r.expectEnd();
}

/** Serialize the full state and write it crash-safely to @p path. */
inline void
writeCheckpoint(const Sim &s, const std::string &path)
{
    nps::ckpt::SnapshotWriter w;
    s.coord->saveState(w);
    s.recorder->saveState(w.section("recorder"));
    w.writeFile(path);
}

inline void
restoreSimFromBytes(Sim &s, const std::string &bytes)
{
    nps::ckpt::SnapshotReader snap;
    std::string err;
    if (!snap.loadBytes(bytes, "<memory>", err))
        nps::util::fatal("test snapshot failed to parse: %s",
                         err.c_str());
    restoreSim(s, snap);
}

/** Every artifact a run exports, for byte-exact comparison. */
struct Artifacts
{
    std::string recorder_csv;
    std::string control_csv;
    std::string cascade_csv;
    std::string metrics_prom;
    std::string trace_csv;
    std::vector<double> power_series;
    std::vector<double> perf_series;
    nps::sim::MetricsSummary summary;
};

inline Artifacts
collect(const Sim &s)
{
    Artifacts a;
    std::ostringstream rec, ctl, cas, met, trc;
    s.recorder->writeCsv(rec);
    a.recorder_csv = rec.str();
    s.coord->controlLog()->writeCsv(ctl);
    a.control_csv = ctl.str();
    s.coord->controlLog()->writeCascadeCsv(cas);
    a.cascade_csv = cas.str();
    s.coord->metricsRegistry()->writeProm(met);
    a.metrics_prom = met.str();
    s.coord->traceSink()->writeCsv(trc);
    a.trace_csv = trc.str();
    a.power_series = s.coord->metrics().powerSeries();
    a.perf_series = s.coord->metrics().perfSeries();
    a.summary = s.coord->summary();
    return a;
}

/** Require two runs' exported artifacts to match byte for byte. */
inline void
expectIdentical(const Artifacts &ref, const Artifacts &got)
{
    EXPECT_EQ(ref.recorder_csv, got.recorder_csv);
    EXPECT_EQ(ref.control_csv, got.control_csv);
    EXPECT_EQ(ref.cascade_csv, got.cascade_csv);
    EXPECT_EQ(ref.metrics_prom, got.metrics_prom);
    EXPECT_EQ(ref.trace_csv, got.trace_csv);
    EXPECT_EQ(ref.power_series, got.power_series);
    EXPECT_EQ(ref.perf_series, got.perf_series);
    EXPECT_EQ(ref.summary.ticks, got.summary.ticks);
    // Exact equality on purpose: resume must be bit-identical, not close.
    EXPECT_EQ(ref.summary.energy, got.summary.energy);
    EXPECT_EQ(ref.summary.mean_power, got.summary.mean_power);
    EXPECT_EQ(ref.summary.peak_power, got.summary.peak_power);
    EXPECT_EQ(ref.summary.sm_violation, got.summary.sm_violation);
    EXPECT_EQ(ref.summary.em_violation, got.summary.em_violation);
    EXPECT_EQ(ref.summary.gm_violation, got.summary.gm_violation);
    EXPECT_EQ(ref.summary.perf_loss, got.summary.perf_loss);
    EXPECT_EQ(ref.summary.degrade.outage_ticks,
              got.summary.degrade.outage_ticks);
    EXPECT_EQ(ref.summary.degrade.outage_steps,
              got.summary.degrade.outage_steps);
    EXPECT_EQ(ref.summary.degrade.restarts, got.summary.degrade.restarts);
    EXPECT_EQ(ref.summary.degrade.lease_expiries,
              got.summary.degrade.lease_expiries);
    EXPECT_EQ(ref.summary.degrade.lease_fallback_steps,
              got.summary.degrade.lease_fallback_steps);
    EXPECT_EQ(ref.summary.degrade.ec_fallback_steps,
              got.summary.degrade.ec_fallback_steps);
    EXPECT_EQ(ref.summary.degrade.dropped_budgets,
              got.summary.degrade.dropped_budgets);
    EXPECT_EQ(ref.summary.degrade.stale_budgets,
              got.summary.degrade.stale_budgets);
    EXPECT_EQ(ref.summary.degrade.stuck_actuations,
              got.summary.degrade.stuck_actuations);
    EXPECT_EQ(ref.summary.degrade.noisy_reads,
              got.summary.degrade.noisy_reads);
}

/** Checkpoint file name for tick @p tick (zero-padded = sortable). */
inline std::string
ckptName(size_t tick)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "ckpt-%010zu.nps", tick);
    return buf;
}

/** ckpt-*.nps names in @p dir, newest first (mirrors npsim's scan). */
inline std::vector<std::string>
listCkpts(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string n = e->d_name;
            if (n.size() > 9 && n.compare(0, 5, "ckpt-") == 0 &&
                n.compare(n.size() - 4, 4, ".nps") == 0)
                names.push_back(n);
        }
        ::closedir(d);
    }
    std::sort(names.rbegin(), names.rend());
    return names;
}

/** Tick number encoded in a ckpt-<tick>.nps name. */
inline size_t
ckptTick(const std::string &name)
{
    return static_cast<size_t>(
        std::strtoull(name.c_str() + 5, nullptr, 10));
}

} // namespace nps_ckpt_test

#endif // NPS_TESTS_CKPT_CKPT_TEST_UTIL_H
