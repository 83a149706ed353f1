/**
 * @file
 * Resume-equals-uninterrupted, in process. For each scenario in the
 * matrix: run a reference simulation straight through, then run a twin
 * up to a split tick, snapshot it, restore the snapshot into a freshly
 * built simulation, finish the remaining ticks, and require every
 * exported artifact — recorder CSV, control-plane log, cascade trace,
 * metrics export, decision trace, power/perf series, summary — to match
 * byte for byte.
 * Thread counts differ across the split in several cases because
 * determinism must not depend on the worker count.
 */

#include <gtest/gtest.h>

#include "ckpt/ckpt_test_util.h"

namespace {

using namespace nps_ckpt_test;
using nps::core::Scenario;

constexpr size_t kTotal = 360; // < trace length so the tail still moves

/** The fault campaign used by the fault-carrying cases: an SM outage
 *  spanning the split, lossy and stale links, and an EC outage after
 *  the split, so degraded behaviour exists on both sides of it. */
constexpr const char *kFaults = "outage sm 2 40 150\n"
                                "drop gm-em * 100 200 0.5\n"
                                "stale em-sm 1 120 240\n"
                                "outage ec 0 220 300";

/**
 * Run @p c straight through at @p ref_threads; run it again at
 * @p threads_a up to @p split, checkpoint, restore into a fresh build
 * at @p threads_b, finish, and compare everything.
 */
void
checkResume(const CkptCase &c, size_t split, unsigned ref_threads,
            unsigned threads_a, unsigned threads_b)
{
    Sim ref = buildSim(c, ref_threads);
    ref.coord->run(kTotal);
    Artifacts want = collect(ref);

    Sim first = buildSim(c, threads_a);
    first.coord->run(split);
    std::string bytes = snapshotBytes(first);

    Sim second = buildSim(c, threads_b);
    restoreSimFromBytes(second, bytes);
    second.coord->run(kTotal - split);
    expectIdentical(want, collect(second));
}

TEST(ResumeTest, CoordinatedSerial)
{
    checkResume({}, 163, 1, 1, 1);
}

TEST(ResumeTest, CoordinatedAcrossThreadCounts)
{
    // Checkpoint under 8 workers, resume serial, reference at 8: the
    // snapshot is thread-count independent in both directions.
    checkResume({}, 163, 8, 8, 1);
}

TEST(ResumeTest, CoordinatedWithFaultCampaign)
{
    // The fault schedule is rebuilt from config on resume, and the kill
    // point sits inside an outage AND a stale window — link replay
    // slots, restart bookkeeping, and degrade counters all cross the
    // checkpoint. Serial checkpoint, threaded resume.
    CkptCase c;
    c.faults = kFaults;
    checkResume(c, 163, 1, 1, 8);
}

TEST(ResumeTest, VmcOnlyScenario)
{
    CkptCase c;
    c.scenario = Scenario::VmcOnly;
    checkResume(c, 100, 1, 1, 1);
}

TEST(ResumeTest, UncoordinatedScenario)
{
    CkptCase c;
    c.scenario = Scenario::Uncoordinated;
    checkResume(c, 163, 1, 1, 1);
}

TEST(ResumeTest, ThreeLevelGmTree)
{
    CkptCase c;
    c.tree = true;
    checkResume(c, 163, 1, 1, 1);
}

TEST(ResumeTest, TreeWithFaultsAcrossThreads)
{
    CkptCase c;
    c.tree = true;
    c.faults = kFaults;
    checkResume(c, 163, 1, 8, 1);
}

TEST(ResumeTest, CapperAndMemoryManagers)
{
    // The CAP/MM kernels shard their slots: checkpoint serial, resume
    // on 4 workers.
    CkptCase c;
    c.cap_mem = true;
    checkResume(c, 163, 1, 1, 4);
}

TEST(ResumeTest, CascadeOnlyLogAcrossThreadCounts)
{
    // Without the full control log the cascade keeps a traced-only log;
    // it is checkpointed all the same.
    CkptCase c;
    c.cascade_only = true;
    c.faults = kFaults;
    checkResume(c, 151, 1, 4, 2);
}

TEST(ResumeTest, SplitAtTickZero)
{
    // Checkpoint before the first tick: restore must reproduce the whole
    // run, including controller warm-up.
    checkResume({}, 0, 1, 1, 1);
}

TEST(ResumeTest, SplitAtFinalTick)
{
    // Checkpoint after the last tick: restore runs zero ticks and the
    // artifacts must already be complete.
    checkResume({}, kTotal, 1, 1, 1);
}

TEST(ResumeTest, RestoreIntoWrongTopologyDies)
{
    Sim flat = buildSim({}, 1);
    flat.coord->run(20);
    std::string bytes = snapshotBytes(flat);

    CkptCase tree_case;
    tree_case.tree = true;
    EXPECT_DEATH(
        {
            Sim tree = buildSim(tree_case, 1);
            restoreSimFromBytes(tree, bytes);
        },
        "snapshot");
}

} // namespace
