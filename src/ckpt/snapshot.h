/**
 * @file
 * Versioned, CRC-protected snapshot format for crash-safe checkpointing.
 *
 * A snapshot is a flat container of named sections. Each component of the
 * simulator (engine, cluster, each controller, each link log, the obs
 * instruments) serializes its mutable state into its own section through a
 * SectionWriter and restores it through a SectionReader. The container
 * carries a magic string, a format version, and a CRC32 per section, so a
 * truncated or bit-flipped file is detected on load instead of silently
 * resuming from garbage.
 *
 * On-disk layout (all integers little-endian):
 *
 *   8 bytes   magic "NPSCKPT1"
 *   u32       format version
 *   u32       section count
 *   per section:
 *     u32       name length, then name bytes
 *     u64       payload length
 *     u32       CRC32 of the payload bytes
 *     payload
 *
 * Doubles are stored as the bit pattern of the IEEE-754 value (via
 * std::bit_cast to uint64_t) so restore is exact — byte-identical resume
 * depends on it.
 */

#ifndef NPS_CKPT_SNAPSHOT_H
#define NPS_CKPT_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nps {
namespace ckpt {

/**
 * Snapshot container format version (bump on layout change). v2 added
 * the controllers' cascade trace context and made the metrics registry
 * skip runtime (nps_rt_*) families; v3 added the trace id to every
 * control-log event; v4 replaced the per-server EC/SM actors in the
 * engine roster with one kernel actor per kind (the ec/<i> and sm/<i>
 * sections keep their bytes); v5 did the same for the CAP and MM
 * actors (CAP/fleet, MM/fleet; the cap/<i> and mm/<i> sections keep
 * their bytes).
 */
inline constexpr uint32_t kFormatVersion = 5;

/**
 * CRC32 (IEEE 802.3 polynomial) of a byte range. Thin alias of
 * util::crc32 (util/crc32.h), kept so every checkpoint call site and
 * snapshot byte stays exactly as before the consolidation.
 */
uint32_t crc32(const void *data, size_t len);

/**
 * Serializes one section's payload. Append-only; typed put* helpers keep
 * the byte layout in one place.
 */
class SectionWriter
{
  public:
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putI64(int64_t v);
    void putDouble(double v);
    void putBool(bool v);
    void putString(std::string_view s);

    void putDoubleVec(const std::vector<double> &v);
    void putU64Vec(const std::vector<uint64_t> &v);

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Deserializes one section's payload. Reads must mirror the writes exactly;
 * any underrun is a fatal error naming the section, because it means the
 * snapshot and the binary disagree about the layout.
 */
class SectionReader
{
  public:
    SectionReader(std::string_view name, std::string_view bytes);

    uint32_t getU32();
    uint64_t getU64();
    int64_t getI64();
    double getDouble();
    bool getBool();
    std::string getString();

    std::vector<double> getDoubleVec();
    std::vector<uint64_t> getU64Vec();

    /** @return bytes not yet consumed. */
    size_t remaining() const { return bytes_.size() - pos_; }

    /** Fatal if any bytes remain unread (layout mismatch). */
    void expectEnd() const;

  private:
    const unsigned char *take(size_t n);

    std::string name_;
    std::string_view bytes_;
    size_t pos_ = 0;
};

/**
 * Builds a snapshot: components request named sections, the writer
 * serializes the container and writes it crash-safely.
 */
class SnapshotWriter
{
  public:
    /** Open a new section. Fatal on a duplicate name. */
    SectionWriter &section(std::string_view name);

    /** @return the serialized container (magic + version + sections). */
    std::string serialize() const;

    /**
     * Serialize and write crash-safely: temp file in the same directory,
     * fsync, atomic rename over @p path. Fatal with path + errno on any
     * I/O failure.
     */
    void writeFile(const std::string &path) const;

  private:
    std::vector<std::string> order_;
    std::map<std::string, SectionWriter, std::less<>> sections_;
};

/**
 * Loads a snapshot file, verifying magic, version, and per-section CRCs.
 */
class SnapshotReader
{
  public:
    /**
     * Load and validate @p path. @return false with a human-readable
     * reason in @p error on any problem (missing file, bad magic,
     * version mismatch, truncation, CRC mismatch). Non-fatal so callers
     * can fall back to an older checkpoint.
     */
    bool load(const std::string &path, std::string &error);

    /**
     * Parse an already-in-memory serialized container (same validation
     * as load()); @p label stands in for the path in diagnostics.
     */
    bool loadBytes(const std::string &data, const std::string &label,
                   std::string &error);

    bool has(std::string_view name) const;

    /** Open a section for reading. Fatal if the section is missing. */
    SectionReader section(std::string_view name) const;

    /** Names of all sections, in file order. */
    const std::vector<std::string> &names() const { return order_; }

    /** Path the snapshot was loaded from (for diagnostics). */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::vector<std::string> order_;
    std::map<std::string, std::string, std::less<>> sections_;
};

} // namespace ckpt
} // namespace nps

#endif // NPS_CKPT_SNAPSHOT_H
