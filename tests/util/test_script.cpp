/**
 * @file
 * Tests for the strict token readers shared by the clause-script
 * grammars and the numeric command-line flags: a token is accepted only
 * when it is consumed completely, so "20x" and "-1" never pass as
 * numbers, and the clause splitter keeps comments and empty clauses out.
 *
 * The last case drives the real npsim binary (NPS_NPSIM_BIN, injected by
 * the build) and skips when the macro is absent.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/script.h"

namespace {

#ifndef NPS_NPSIM_BIN
#define NPS_NPSIM_BIN ""
#endif

using nps::util::parseNumber;
using nps::util::parseUnsigned;
using nps::util::readClauses;

TEST(ParseUnsignedTest, AcceptsOnlyPlainDigits)
{
    uint64_t v = 7;
    EXPECT_TRUE(parseUnsigned("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    for (const char *bad : {"", "20x", "-1", "+1", " 5", "5 ", "0x10",
                            "1e3", "18446744073709551616", "abc"}) {
        v = 42;
        EXPECT_FALSE(parseUnsigned(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 42u) << "output touched on failure";
    }
}

TEST(ParseNumberTest, RequiresTheWholeTokenAndAFiniteValue)
{
    double v = 0.0;
    EXPECT_TRUE(parseNumber("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(parseNumber("-3", v));
    EXPECT_DOUBLE_EQ(v, -3.0);
    EXPECT_TRUE(parseNumber("1e-3", v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    for (const char *bad :
         {"", "0.5x", " 1", "1 ", "nan", "inf", "-inf", "1e999", "--1"}) {
        v = 9.0;
        EXPECT_FALSE(parseNumber(bad, v)) << "'" << bad << "'";
        EXPECT_DOUBLE_EQ(v, 9.0) << "output touched on failure";
    }
}

TEST(ReadClausesTest, SplitsLinesAndSemicolonsAndDropsComments)
{
    auto clauses = readClauses("a 1 2 # trailing; not a clause\n"
                               "\n"
                               "  ;b 3; ;c\t4 5\n"
                               "# whole-line comment\n",
                               "test");
    ASSERT_EQ(clauses.size(), 3u);
    EXPECT_EQ(clauses[0].tok, (std::vector<std::string>{"a", "1", "2"}));
    EXPECT_EQ(clauses[1].tok, (std::vector<std::string>{"b", "3"}));
    EXPECT_EQ(clauses[1].raw, "b 3");
    EXPECT_EQ(clauses[2].tok, (std::vector<std::string>{"c", "4", "5"}));
    EXPECT_EQ(clauses[2].tick(1), 4u);
    EXPECT_DOUBLE_EQ(clauses[2].number(2), 5.0);
}

TEST(ReadClausesTest, MalformedTokensDieNamingTheClause)
{
    auto clauses = readClauses("x 20x -1 0.5y", "demo");
    ASSERT_EQ(clauses.size(), 1u);
    EXPECT_DEATH(clauses[0].tick(1), "demo: bad tick '20x' in 'x 20x");
    EXPECT_DEATH(clauses[0].tick(2), "bad tick '-1'");
    EXPECT_DEATH(clauses[0].number(3), "demo: bad number '0.5y'");
}

TEST(NpsimFlagsTest, GarbageNumbersFailWithALocatedMessage)
{
    const std::string npsim = NPS_NPSIM_BIN;
    if (npsim.empty())
        GTEST_SKIP() << "binary path not wired into this build";
    for (const char *flags : {"--ticks abc", "--threads 2x",
                              "--seed -1", "--checkpoint-every 1e3"}) {
        std::string cmd = npsim + " " + flags + " 2>&1";
        FILE *p = ::popen(cmd.c_str(), "r");
        ASSERT_NE(p, nullptr);
        std::string out;
        char buf[256];
        while (std::fgets(buf, sizeof buf, p))
            out += buf;
        int status = ::pclose(p);
        ASSERT_TRUE(WIFEXITED(status)) << flags;
        EXPECT_NE(WEXITSTATUS(status), 0) << flags << " was accepted";
        std::string flag(flags, std::string(flags).find(' '));
        EXPECT_NE(out.find(flag + ": bad value"), std::string::npos)
            << flags << " -> " << out;
    }
}

} // namespace
