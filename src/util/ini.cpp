#include "util/ini.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.h"
#include "util/script.h"

namespace nps {
namespace util {

namespace {

std::string
trim(const std::string &s)
{
    size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

} // namespace

bool
IniDocument::has(const std::string &section, const std::string &key) const
{
    auto it = sections_.find(section);
    return it != sections_.end() && it->second.values.count(key) > 0;
}

std::string
IniDocument::get(const std::string &section, const std::string &key,
                 const std::string &fallback) const
{
    auto it = sections_.find(section);
    if (it == sections_.end())
        return fallback;
    auto kv = it->second.values.find(key);
    return kv == it->second.values.end() ? fallback : kv->second;
}

double
IniDocument::getDouble(const std::string &section, const std::string &key,
                       double fallback) const
{
    if (!has(section, key))
        return fallback;
    std::string raw = get(section, key);
    double value = 0.0;
    if (!parseNumber(raw, value))
        fatal("ini: [%s] %s = '%s' is not a number, or not finite",
              section.c_str(), key.c_str(), raw.c_str());
    return value;
}

template <class T>
T
IniDocument::getUnsigned(const std::string &section, const std::string &key,
                         T fallback) const
{
    if (!has(section, key))
        return fallback;
    std::string raw = get(section, key);
    uint64_t value = 0;
    if (!parseUnsigned(raw, value) || value > std::numeric_limits<T>::max())
        fatal("ini: [%s] %s = '%s' is not an unsigned integer up to %llu",
              section.c_str(), key.c_str(), raw.c_str(),
              static_cast<unsigned long long>(std::numeric_limits<T>::max()));
    return static_cast<T>(value);
}

template unsigned IniDocument::getUnsigned(const std::string &,
                                           const std::string &,
                                           unsigned) const;
template unsigned long IniDocument::getUnsigned(const std::string &,
                                                const std::string &,
                                                unsigned long) const;

bool
IniDocument::getBool(const std::string &section, const std::string &key,
                     bool fallback) const
{
    if (!has(section, key))
        return fallback;
    std::string raw = get(section, key);
    std::string lower = raw;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "true" || lower == "yes" || lower == "on" ||
        lower == "1") {
        return true;
    }
    if (lower == "false" || lower == "no" || lower == "off" ||
        lower == "0") {
        return false;
    }
    fatal("ini: [%s] %s = '%s' is not a boolean", section.c_str(),
          key.c_str(), raw.c_str());
}

void
IniDocument::addSection(const std::string &section)
{
    if (sections_.find(section) == sections_.end()) {
        section_order_.push_back(section);
        sections_.emplace(section, Entry{});
    }
}

void
IniDocument::set(const std::string &section, const std::string &key,
                 const std::string &value)
{
    addSection(section);
    Entry &entry = sections_.at(section);
    if (!entry.values.count(key))
        entry.key_order.push_back(key);
    entry.values[key] = value;
}

std::vector<std::string>
IniDocument::keys(const std::string &section) const
{
    auto it = sections_.find(section);
    return it == sections_.end() ? std::vector<std::string>{}
                                 : it->second.key_order;
}

std::string
IniDocument::toText() const
{
    std::ostringstream out;
    for (const auto &name : section_order_) {
        out << '[' << name << "]\n";
        const Entry &entry = sections_.at(name);
        for (const auto &key : entry.key_order)
            out << key << " = " << entry.values.at(key) << '\n';
        out << '\n';
    }
    return out.str();
}

IniDocument
parseIni(const std::string &text)
{
    IniDocument doc;
    std::istringstream in(text);
    std::string line;
    std::string section;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        if (t.front() == '[') {
            if (t.back() != ']' || t.size() < 3)
                fatal("ini: malformed section header at line %d",
                      line_no);
            section = trim(t.substr(1, t.size() - 2));
            if (section.empty())
                fatal("ini: empty section name at line %d", line_no);
            doc.addSection(section);
            continue;
        }
        size_t eq = t.find('=');
        if (eq == std::string::npos)
            fatal("ini: expected 'key = value' at line %d", line_no);
        if (section.empty())
            fatal("ini: key outside any section at line %d", line_no);
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        if (key.empty())
            fatal("ini: empty key at line %d", line_no);
        doc.set(section, key, value);
    }
    return doc;
}

IniDocument
readIniFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("readIniFile: cannot open %s", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseIni(ss.str());
}

} // namespace util
} // namespace nps
