/**
 * @file
 * End-to-end invariance of the causal budget-cascade trace
 * (docs/OBSERVABILITY.md): the merged cascade CSV written by
 * `npsim --cascade` must be byte-identical at every thread count, and
 * identical between the single-process plan runtime and the real
 * multi-process distributed runtime — the trace records the causal
 * order of the budget protocol, not the schedule that happened to
 * execute it. The trace lives in the checkpointed control-plane log, so
 * a resumed run writes the same CSV as an uninterrupted one.
 *
 * Drives the real binaries (NPS_NPSIM_BIN, injected by the build;
 * npsnode is found next to npsim). Skips when the macro is absent.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef NPS_NPSIM_BIN
#define NPS_NPSIM_BIN ""
#endif

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class CascadeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        npsim_ = NPS_NPSIM_BIN;
        if (npsim_.empty())
            GTEST_SKIP() << "binary paths not wired into this build";
        ASSERT_EQ(::access(npsim_.c_str(), X_OK), 0)
            << npsim_ << " is not executable";
        char tmpl[] = "/tmp/nps-cascade-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void TearDown() override
    {
        if (!dir_.empty())
            std::system(("rm -rf '" + dir_ + "'").c_str());
    }

    int runNpsim(const std::string &args, const std::string &log)
    {
        std::string cmd =
            npsim_ + " " + args + " > " + dir_ + "/" + log + " 2>&1";
        int status = std::system(cmd.c_str());
        if (status == -1 || !WIFEXITED(status))
            return -1;
        return WEXITSTATUS(status);
    }

    /** The 3-node plan of tests/integration/test_dist_equiv.cpp, plus
     * an [obs] section arming the registry and the cascade tracer. */
    std::string writeObsPlan(const std::string &name, size_t ticks)
    {
        std::string path = dir_ + "/" + name + ".plan";
        std::ofstream out(path);
        out << "[dist]\n"
            << "socket = " << dir_ << "/" << name << ".sock\n"
            << "timeout_ms = 60000\n"
            << "[run]\n"
            << "scenario = coordinated\n"
            << "mix = 60M\n"
            << "ticks = " << ticks << "\n"
            << "[node group]\nlevels = gm:*\n"
            << "[node enclosures]\nlevels = em:*\n"
            << "[node vms]\nlevels = vmc\n"
            << "[obs]\n"
            << "metrics_every = 5\n"
            << "cascade = true\n";
        return path;
    }

    std::string npsim_;
    std::string dir_;
};

TEST_F(CascadeTest, CsvIsByteIdenticalAcrossThreadCounts)
{
    const std::string common =
        "--scenario coordinated --mix 60M --ticks 240 --log-level warn ";
    std::string ref;
    for (int threads : {1, 4, 8}) {
        std::string name = "t" + std::to_string(threads);
        std::string csv = dir_ + "/" + name + ".csv";
        ASSERT_EQ(runNpsim(common + "--threads " +
                               std::to_string(threads) + " --cascade " +
                               csv,
                           name + ".log"),
                  0)
            << readFile(dir_ + "/" + name + ".log");
        std::string got = readFile(csv);
        ASSERT_NE(got.find("tick,link,kind,seq,trace,root_tick,"
                           "hop_latency,value,delivered"),
                  std::string::npos)
            << "unexpected CSV header at threads=" << threads;
        // A coordinated run must actually cascade: header plus hops.
        ASSERT_GT(got.size(), 100u) << "empty trace at threads="
                                    << threads;
        if (threads == 1)
            ref = got;
        else
            EXPECT_TRUE(got == ref)
                << "cascade CSV diverges at threads=" << threads;
    }
}

TEST_F(CascadeTest, PlanAndDistributedRuntimesAgree)
{
    const size_t ticks = 240;
    std::string plan = writeObsPlan("obs", ticks);
    ASSERT_EQ(runNpsim("--plan " + plan + " --cascade " + dir_ +
                           "/plan.csv --record " + dir_ + "/plan-rec.csv",
                       "plan.log"),
              0)
        << readFile(dir_ + "/plan.log");
    ASSERT_EQ(runNpsim("--distributed " + plan + " --cascade " + dir_ +
                           "/dist.csv --record " + dir_ +
                           "/dist-rec.csv",
                       "dist.log"),
              0)
        << readFile(dir_ + "/dist.log");

    std::string plan_csv = readFile(dir_ + "/plan.csv");
    ASSERT_GT(plan_csv.size(), 100u);
    // The distributed tracer saw the same hops in the same causal
    // order, even though its links are sockets between processes.
    EXPECT_TRUE(plan_csv == readFile(dir_ + "/dist.csv"))
        << "cascade CSV diverges between --plan and --distributed";
    // And tracing never perturbed the simulation itself.
    EXPECT_TRUE(readFile(dir_ + "/plan-rec.csv") ==
                readFile(dir_ + "/dist-rec.csv"))
        << "recorder CSV diverges between --plan and --distributed";
}

TEST_F(CascadeTest, CsvSurvivesKillAndResume)
{
    const std::string common =
        "--scenario coordinated --mix 60M --ticks 240 --log-level warn ";
    ASSERT_EQ(runNpsim(common + "--cascade " + dir_ + "/ref.csv",
                       "ref.log"),
              0)
        << readFile(dir_ + "/ref.log");
    // Checkpoint every 100 ticks at 4 threads, then resume serially from
    // the tick-100 snapshot as if the run had died right after it.
    const std::string ckpts = dir_ + "/ckpts";
    ASSERT_EQ(runNpsim(common + "--threads 4 --checkpoint-every 100 "
                                "--checkpoint-dir " + ckpts +
                           " --cascade " + dir_ + "/first.csv",
                       "first.log"),
              0)
        << readFile(dir_ + "/first.log");
    ASSERT_EQ(runNpsim("--threads 1 --resume " + ckpts +
                           "/ckpt-0000000100.nps --cascade " + dir_ +
                           "/resumed.csv",
                       "resumed.log"),
              0)
        << readFile(dir_ + "/resumed.log");

    std::string ref = readFile(dir_ + "/ref.csv");
    ASSERT_GT(ref.size(), 100u);
    EXPECT_TRUE(readFile(dir_ + "/resumed.csv") == ref)
        << "cascade CSV lost or changed hops across the resume";
}

TEST_F(CascadeTest, ResumeWithoutArmedCascadeFails)
{
    const std::string ckpts = dir_ + "/ckpts";
    ASSERT_EQ(runNpsim("--mix 60M --ticks 100 --checkpoint-every 100 "
                       "--checkpoint-dir " + ckpts,
                       "first.log"),
              0)
        << readFile(dir_ + "/first.log");
    EXPECT_NE(runNpsim("--resume latest --checkpoint-dir " + ckpts +
                           " --cascade " + dir_ + "/c.csv",
                       "resumed.log"),
              0);
    EXPECT_NE(readFile(dir_ + "/resumed.log")
                  .find("did not enable the cascade trace"),
              std::string::npos)
        << readFile(dir_ + "/resumed.log");
}

} // namespace
