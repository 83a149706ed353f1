/**
 * @file
 * Minimal INI parser/writer used for experiment configuration files.
 *
 * Supported syntax: `[section]` headers, `key = value` pairs, `#` or
 * `;` full-line comments, blank lines. Values keep internal spaces;
 * leading/trailing whitespace is trimmed. Duplicate keys take the last
 * value; duplicate sections merge.
 */

#ifndef NPS_UTIL_INI_H
#define NPS_UTIL_INI_H

#include <map>
#include <string>
#include <vector>

namespace nps {
namespace util {

/**
 * A parsed INI document.
 */
class IniDocument
{
  public:
    /** @return true when [section] key exists. */
    bool has(const std::string &section, const std::string &key) const;

    /** @return the raw value, or @p fallback when absent. */
    std::string get(const std::string &section, const std::string &key,
                    const std::string &fallback = "") const;

    /**
     * Typed getters, @p fallback when the key is absent; fatal() on
     * malformed values. A double must be finite (util::parseNumber). An
     * unsigned value is digits only (util::parseUnsigned), no larger
     * than @p T holds: a sign, a fraction or an overflow dies instead of
     * wrapping. @p T is unsigned or unsigned long.
     */
    double getDouble(const std::string &section, const std::string &key,
                     double fallback) const;
    template <class T>
    T getUnsigned(const std::string &section, const std::string &key,
                  T fallback) const;
    bool getBool(const std::string &section, const std::string &key,
                 bool fallback) const;

    /** Set a value (creates the section as needed). */
    void set(const std::string &section, const std::string &key,
             const std::string &value);

    /** Register a (possibly empty) section. */
    void addSection(const std::string &section);

    /** Section names, in insertion order. */
    const std::vector<std::string> &sections() const
    {
        return section_order_;
    }

    /** Keys of one section, in insertion order (empty when absent). */
    std::vector<std::string> keys(const std::string &section) const;

    /** Render back to INI text. */
    std::string toText() const;

  private:
    struct Entry
    {
        std::vector<std::string> key_order;
        std::map<std::string, std::string> values;
    };
    std::map<std::string, Entry> sections_;
    std::vector<std::string> section_order_;
};

/** Parse INI text; fatal() on malformed lines. */
IniDocument parseIni(const std::string &text);

/** Read and parse an INI file; fatal() on IO failure. */
IniDocument readIniFile(const std::string &path);

} // namespace util
} // namespace nps

#endif // NPS_UTIL_INI_H
