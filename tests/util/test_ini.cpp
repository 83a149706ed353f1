/**
 * @file
 * Tests for the INI parser/writer.
 */

#include <gtest/gtest.h>

#include "util/ini.h"

namespace {

using namespace nps::util;

TEST(Ini, BasicParse)
{
    auto ini = parseIni("[a]\nx = 1\ny = hello world\n[b]\nz=2\n");
    EXPECT_TRUE(ini.has("a", "x"));
    EXPECT_EQ(ini.get("a", "x"), "1");
    EXPECT_EQ(ini.get("a", "y"), "hello world");
    EXPECT_EQ(ini.get("b", "z"), "2");
    EXPECT_FALSE(ini.has("a", "z"));
    EXPECT_EQ(ini.get("a", "missing", "dflt"), "dflt");
}

TEST(Ini, CommentsAndBlanksIgnored)
{
    auto ini = parseIni("# top comment\n\n[s]\n; note\nk = v\n");
    EXPECT_EQ(ini.get("s", "k"), "v");
    EXPECT_EQ(ini.sections().size(), 1u);
}

TEST(Ini, WhitespaceTrimmed)
{
    auto ini = parseIni("[ s ]\n  key\t =  value with spaces  \n");
    EXPECT_EQ(ini.get("s", "key"), "value with spaces");
}

TEST(Ini, DuplicateKeyTakesLast)
{
    auto ini = parseIni("[s]\nk = 1\nk = 2\n");
    EXPECT_EQ(ini.get("s", "k"), "2");
    EXPECT_EQ(ini.keys("s").size(), 1u);
}

TEST(Ini, SectionsMerge)
{
    auto ini = parseIni("[s]\na = 1\n[t]\nb = 2\n[s]\nc = 3\n");
    EXPECT_EQ(ini.get("s", "a"), "1");
    EXPECT_EQ(ini.get("s", "c"), "3");
    EXPECT_EQ(ini.sections().size(), 2u);
}

TEST(Ini, EmptySectionRegistered)
{
    auto ini = parseIni("[empty]\n[full]\nk = v\n");
    ASSERT_EQ(ini.sections().size(), 2u);
    EXPECT_EQ(ini.sections()[0], "empty");
    EXPECT_TRUE(ini.keys("empty").empty());
}

TEST(Ini, TypedGetters)
{
    auto ini = parseIni("[s]\nd = -2.5\ni = 7\nbig = 18446744073709551615\n"
                        "b1 = true\nb2 = off\n");
    EXPECT_DOUBLE_EQ(ini.getDouble("s", "d", 0.0), -2.5);
    EXPECT_EQ(ini.getUnsigned("s", "i", 0u), 7u);
    EXPECT_EQ(ini.getUnsigned("s", "big", 0ul), 18446744073709551615ul);
    EXPECT_TRUE(ini.getBool("s", "b1", false));
    EXPECT_FALSE(ini.getBool("s", "b2", true));
    // Fallbacks for missing keys.
    EXPECT_DOUBLE_EQ(ini.getDouble("s", "nope", 9.5), 9.5);
    EXPECT_EQ(ini.getUnsigned("s", "nope", 3u), 3u);
    EXPECT_TRUE(ini.getBool("s", "nope", true));
}

TEST(Ini, BoolSpellings)
{
    auto ini = parseIni("[s]\na = YES\nb = On\nc = 1\nd = No\ne = 0\n");
    EXPECT_TRUE(ini.getBool("s", "a", false));
    EXPECT_TRUE(ini.getBool("s", "b", false));
    EXPECT_TRUE(ini.getBool("s", "c", false));
    EXPECT_FALSE(ini.getBool("s", "d", true));
    EXPECT_FALSE(ini.getBool("s", "e", true));
}

TEST(Ini, MalformedValuesDie)
{
    auto ini = parseIni("[s]\nd = abc\nb = maybe\ni = 1.5\n");
    EXPECT_DEATH(ini.getDouble("s", "d", 0.0), "not a number");
    EXPECT_DEATH(ini.getBool("s", "b", false), "not a boolean");
    EXPECT_DEATH(ini.getUnsigned("s", "i", 0u), "not an unsigned integer");
}

TEST(Ini, NonFiniteNumbersDie)
{
    // strtod reads these; a config value must be a finite number.
    auto ini = parseIni("[s]\na = nan\nb = inf\nc = -inf\nd = 1e999\n");
    for (const char *key : {"a", "b", "c", "d"})
        EXPECT_DEATH(ini.getDouble("s", key, 0.0),
                     "is not a number, or not finite")
            << key;
}

TEST(Ini, UnsignedValuesFailClosed)
{
    // A sign, a blank, a fraction or a value past the target type dies
    // instead of wrapping into a huge unsigned.
    auto ini = parseIni("[s]\nneg = -1\nplus = +5\nfrac = 2.0\n"
                        "hex = 0x10\nwide = 4294967296\n"
                        "huge = 18446744073709551616\n");
    for (const char *key : {"neg", "plus", "frac", "hex", "wide", "huge"})
        EXPECT_DEATH(ini.getUnsigned("s", key, 0u),
                     "is not an unsigned integer up to 4294967295")
            << key;
    EXPECT_EQ(ini.getUnsigned("s", "wide", 0ul), 4294967296ul);
    EXPECT_DEATH(ini.getUnsigned("s", "huge", 0ul),
                 "up to 18446744073709551615");
}

TEST(Ini, MalformedSyntaxDies)
{
    EXPECT_DEATH(parseIni("[unclosed\nk = v\n"), "malformed section");
    EXPECT_DEATH(parseIni("[s]\nno equals sign\n"), "expected");
    EXPECT_DEATH(parseIni("k = v\n"), "outside any section");
    EXPECT_DEATH(parseIni("[]\n"), "section");
    EXPECT_DEATH(parseIni("[s]\n= v\n"), "empty key");
}

TEST(Ini, RoundTrip)
{
    IniDocument doc;
    doc.set("alpha", "x", "1");
    doc.set("alpha", "y", "two words");
    doc.set("beta", "z", "3.5");
    auto back = parseIni(doc.toText());
    EXPECT_EQ(back.get("alpha", "x"), "1");
    EXPECT_EQ(back.get("alpha", "y"), "two words");
    EXPECT_DOUBLE_EQ(back.getDouble("beta", "z", 0.0), 3.5);
}

TEST(Ini, KeysPreserveInsertionOrder)
{
    auto ini = parseIni("[s]\nb = 1\na = 2\nc = 3\n");
    auto keys = ini.keys("s");
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "b");
    EXPECT_EQ(keys[1], "a");
    EXPECT_EQ(keys[2], "c");
}

TEST(Ini, MissingFileDies)
{
    EXPECT_DEATH(readIniFile("/nonexistent/x.ini"), "cannot open");
}

} // namespace
