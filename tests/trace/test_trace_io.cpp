/**
 * @file
 * Tests for trace CSV import/export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/generator.h"
#include "trace/trace_io.h"

namespace {

using namespace nps::trace;

std::vector<UtilizationTrace>
sampleTraces()
{
    return {
        UtilizationTrace("a", WorkloadClass::WebServer, {0.1, 0.2, 0.3}),
        UtilizationTrace("b,with comma", WorkloadClass::Database,
                         {0.5, 0.6}),
    };
}

TEST(TraceIo, RoundTrip)
{
    std::ostringstream out;
    writeTraces(out, sampleTraces());
    auto back = parseTraces(out.str());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name(), "a");
    EXPECT_EQ(back[0].workloadClass(), WorkloadClass::WebServer);
    ASSERT_EQ(back[0].length(), 3u);
    EXPECT_DOUBLE_EQ(back[0].at(1), 0.2);
    EXPECT_EQ(back[1].name(), "b,with comma");
    EXPECT_EQ(back[1].workloadClass(), WorkloadClass::Database);
    EXPECT_DOUBLE_EQ(back[1].at(1), 0.6);
}

TEST(TraceIo, GeneratedCampaignRoundTrip)
{
    GeneratorConfig cfg;
    cfg.num_enterprises = 2;
    cfg.servers_per_enterprise = 3;
    cfg.trace_length = 50;
    auto traces = TraceGenerator(cfg).generateAll();
    std::ostringstream out;
    writeTraces(out, traces);
    auto back = parseTraces(out.str());
    ASSERT_EQ(back.size(), traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
        EXPECT_EQ(back[i].name(), traces[i].name());
        for (size_t t = 0; t < traces[i].length(); ++t)
            EXPECT_NEAR(back[i].at(t), traces[i].at(t), 1e-9);
    }
}

TEST(TraceIo, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/nps_traces.csv";
    writeTracesFile(path, sampleTraces());
    auto back = readTracesFile(path);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name(), "a");
}

TEST(TraceIo, MissingFileDies)
{
    EXPECT_DEATH(readTracesFile("/nonexistent/nps.csv"), "cannot open");
}

TEST(TraceIo, BadHeaderDies)
{
    EXPECT_DEATH(parseTraces("foo,bar\n"), "header");
}

TEST(TraceIo, EmptyDocumentDies)
{
    EXPECT_DEATH(parseTraces(""), "empty document");
}

TEST(TraceIo, OutOfOrderTicksDie)
{
    std::string text = "name,class,tick,util\n"
                       "a,web,0,0.1\n"
                       "a,web,2,0.2\n";
    EXPECT_DEATH(parseTraces(text), "out of order");
}

TEST(TraceIo, MalformedNumbersDieNamingTheRow)
{
    // Numbers are read whole: no NaN/inf, no trailing junk, no sign on
    // a tick; the diagnostic names the offending row.
    const std::string head = "name,class,tick,util\n"
                             "a,web,0,0.1\n";
    EXPECT_DEATH(parseTraces(head + "a,web,1,nan\n"),
                 "row 2: bad utilization 'nan'");
    EXPECT_DEATH(parseTraces(head + "a,web,1,inf\n"),
                 "row 2: bad utilization 'inf'");
    EXPECT_DEATH(parseTraces(head + "a,web,1,0.5x\n"),
                 "row 2: bad utilization '0.5x'");
    EXPECT_DEATH(parseTraces(head + "a,web,1,\n"),
                 "row 2: bad utilization ''");
    EXPECT_DEATH(parseTraces(head + "a,web,abc,0.2\n"),
                 "row 2: bad tick 'abc'");
    EXPECT_DEATH(parseTraces(head + "a,web,-1,0.2\n"),
                 "row 2: bad tick '-1'");
    EXPECT_DEATH(parseTraces(head + "a,web,1.0,0.2\n"),
                 "row 2: bad tick '1.0'");
    // Well-formed but negative demand is the trace's own refusal.
    EXPECT_DEATH(parseTraces(head + "a,web,1,-0.5\n"), "negative");
}

TEST(TraceIo, UnknownClassDies)
{
    std::string text = "name,class,tick,util\n"
                       "a,mainframe,0,0.1\n";
    EXPECT_DEATH(parseTraces(text), "unknown class");
}

TEST(TraceIo, ClassNameRoundTrip)
{
    for (size_t c = 0; c < kNumWorkloadClasses; ++c) {
        auto wc = static_cast<WorkloadClass>(c);
        EXPECT_EQ(workloadClassFromName(workloadClassName(wc)), wc);
    }
}

} // namespace
