/**
 * @file
 * Tests for the snapshot container itself: typed round trips, the
 * on-disk layout guarantees, and — most importantly — that every way a
 * file can be damaged (bit flip, truncation, wrong magic, future
 * version, trailing garbage) is *detected* at load with a reason,
 * instead of silently resuming from garbage.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "ckpt/atomic_io.h"
#include "ckpt/snapshot.h"

namespace {

using namespace nps::ckpt;

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

/** A writer with one section exercising every typed put. */
SnapshotWriter
sampleSnapshot()
{
    SnapshotWriter w;
    SectionWriter &s = w.section("alpha");
    s.putU32(0xdeadbeefu);
    s.putU64(0x0123456789abcdefull);
    s.putI64(-42);
    s.putDouble(0.1 + 0.2); // not representable in 6 digits
    s.putDouble(-std::numeric_limits<double>::infinity());
    s.putBool(true);
    s.putBool(false);
    s.putString("hello checkpoint");
    s.putDoubleVec({1.5, -2.5, 1e-300});
    s.putU64Vec({7, 8, 9});
    w.section("beta").putU32(1);
    return w;
}

TEST(SnapshotFormat, TypedRoundTripIsExact)
{
    SnapshotWriter w = sampleSnapshot();
    SnapshotReader snap;
    std::string err;
    ASSERT_TRUE(snap.loadBytes(w.serialize(), "mem", err)) << err;

    ASSERT_TRUE(snap.has("alpha"));
    ASSERT_TRUE(snap.has("beta"));
    EXPECT_FALSE(snap.has("gamma"));
    // Section order is preserved.
    ASSERT_EQ(snap.names().size(), 2u);
    EXPECT_EQ(snap.names()[0], "alpha");

    SectionReader r = snap.section("alpha");
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getDouble(), 0.1 + 0.2); // bit-exact, not near
    EXPECT_TRUE(std::isinf(r.getDouble()));
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getString(), "hello checkpoint");
    EXPECT_EQ(r.getDoubleVec(), (std::vector<double>{1.5, -2.5, 1e-300}));
    EXPECT_EQ(r.getU64Vec(), (std::vector<uint64_t>{7, 8, 9}));
    r.expectEnd();
}

TEST(SnapshotFormat, FileRoundTripMatchesMemory)
{
    std::string path = tempPath("nps_snap_roundtrip.nps");
    SnapshotWriter w = sampleSnapshot();
    w.writeFile(path);

    SnapshotReader snap;
    std::string err;
    ASSERT_TRUE(snap.load(path, err)) << err;
    SectionReader r = snap.section("beta");
    EXPECT_EQ(r.getU32(), 1u);
    r.expectEnd();
    // The crash-safe write leaves no temp file behind.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(SnapshotFormat, BitFlipFailsCrcWithSectionName)
{
    std::string bytes = sampleSnapshot().serialize();
    bytes[bytes.size() - 3] ^= 0x01; // inside the last payload
    SnapshotReader snap;
    std::string err;
    EXPECT_FALSE(snap.loadBytes(bytes, "mem", err));
    EXPECT_NE(err.find("CRC mismatch"), std::string::npos) << err;
    EXPECT_NE(err.find("beta"), std::string::npos) << err;
    EXPECT_NE(err.find("corrupt"), std::string::npos) << err;
}

TEST(SnapshotFormat, EveryTruncationPointIsDetected)
{
    std::string bytes = sampleSnapshot().serialize();
    SnapshotReader snap;
    std::string err;
    // Chop at every prefix length: nothing may load successfully, and
    // nothing may crash — only clean "truncated"/"magic" rejections.
    for (size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(snap.loadBytes(bytes.substr(0, len), "mem", err))
            << "prefix of " << len << " bytes parsed as valid";
    }
}

TEST(SnapshotFormat, BadMagicRejected)
{
    SnapshotReader snap;
    std::string err;
    EXPECT_FALSE(snap.loadBytes("NOTACKPTxxxxxxxxxxxx", "mem", err));
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(SnapshotFormat, FutureVersionRejected)
{
    std::string bytes = sampleSnapshot().serialize();
    bytes[8] = 99; // version u32 (little-endian) follows the 8-byte magic
    SnapshotReader snap;
    std::string err;
    EXPECT_FALSE(snap.loadBytes(bytes, "mem", err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SnapshotFormat, PreviousVersionRejected)
{
    // v4 rosters name one CAP/MM actor per server; v5 restores refuse
    // them by version rather than by a roster mismatch.
    std::string bytes = sampleSnapshot().serialize();
    bytes[8] = static_cast<char>(kFormatVersion - 1);
    SnapshotReader snap;
    std::string err;
    EXPECT_FALSE(snap.loadBytes(bytes, "mem", err));
    EXPECT_NE(err.find("format version 4 not supported"), std::string::npos)
        << err;
}

TEST(SnapshotFormat, TrailingGarbageRejected)
{
    std::string bytes = sampleSnapshot().serialize() + "junk";
    SnapshotReader snap;
    std::string err;
    EXPECT_FALSE(snap.loadBytes(bytes, "mem", err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(SnapshotFormat, MissingFileIsNonFatal)
{
    SnapshotReader snap;
    std::string err;
    EXPECT_FALSE(snap.load(tempPath("nps_does_not_exist.nps"), err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(SnapshotFormat, DuplicateSectionNameDies)
{
    SnapshotWriter w;
    w.section("dup");
    EXPECT_DEATH(w.section("dup"), "duplicate");
}

TEST(SnapshotFormat, UnderrunReadDiesNamingSection)
{
    SnapshotWriter w;
    w.section("small").putU32(1);
    SnapshotReader snap;
    std::string err;
    ASSERT_TRUE(snap.loadBytes(w.serialize(), "mem", err)) << err;
    EXPECT_DEATH(
        {
            SectionReader r = snap.section("small");
            r.getU64(); // 4 bytes there, 8 wanted
        },
        "small");
}

TEST(SnapshotFormat, LeftoverBytesDieOnExpectEnd)
{
    SnapshotWriter w;
    w.section("long").putU64(1);
    SnapshotReader snap;
    std::string err;
    ASSERT_TRUE(snap.loadBytes(w.serialize(), "mem", err)) << err;
    EXPECT_DEATH(
        {
            SectionReader r = snap.section("long");
            r.getU32();
            r.expectEnd(); // 4 bytes still unread
        },
        "long");
}

TEST(AtomicIo, WriteFailureIsFatalWithPath)
{
    EXPECT_DEATH(
        writeFileAtomic(tempPath("no_such_dir/file.out"), "data"),
        "no_such_dir");
}

TEST(AtomicIo, OverwriteReplacesWholeFile)
{
    std::string path = tempPath("nps_atomic_overwrite.txt");
    writeFileAtomic(path, "first version, longer");
    writeFileAtomic(path, "second");
    std::ifstream in(path);
    std::string got((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(got, "second");
    std::remove(path.c_str());
}

} // namespace
