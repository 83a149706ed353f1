#include "util/script.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/logging.h"

namespace nps {
namespace util {

bool
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
parseNumber(const std::string &text, double &out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

size_t
ScriptClause::tick(size_t i) const
{
    uint64_t v = 0;
    if (!parseUnsigned(tok[i], v))
        fatal("%s: bad tick '%s' in '%s' (want a non-negative integer)",
              grammar, tok[i].c_str(), raw.c_str());
    return static_cast<size_t>(v);
}

double
ScriptClause::number(size_t i) const
{
    double v = 0.0;
    if (!parseNumber(tok[i], v))
        fatal("%s: bad number '%s' in '%s'", grammar, tok[i].c_str(),
              raw.c_str());
    return v;
}

std::vector<ScriptClause>
readClauses(const std::string &text, const char *grammar)
{
    std::vector<ScriptClause> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream clauses(line);
        ScriptClause c;
        c.grammar = grammar;
        while (std::getline(clauses, c.raw, ';')) {
            std::istringstream in(c.raw);
            c.tok.clear();
            std::string t;
            while (in >> t)
                c.tok.push_back(t);
            if (!c.tok.empty())
                out.push_back(c);
        }
    }
    return out;
}

} // namespace util
} // namespace nps
