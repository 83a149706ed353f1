/**
 * @file
 * Strict token parsing shared by the clause-script grammars (the fault
 * script, docs/FAULTS.md, and the netem script,
 * docs/NETWORK_FAULTS.md) and by the numeric command-line flags.
 *
 * A clause script is one clause per line or per ';'-separated segment;
 * '#' starts a comment that runs to the end of the line, and tokens are
 * separated by whitespace. The number readers accept a token only when
 * they consume all of it: "20x" is not 20, and "-1" is not a tick.
 */

#ifndef NPS_UTIL_SCRIPT_H
#define NPS_UTIL_SCRIPT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nps {
namespace util {

/**
 * Parse @p text as an unsigned decimal integer: digits only (no sign,
 * no blanks, no suffix) and within uint64_t. @return false otherwise,
 * leaving @p out untouched.
 */
bool parseUnsigned(const std::string &text, uint64_t &out);

/**
 * Parse @p text as a finite real number that strtod consumes entirely
 * (no leading blanks, no suffix, no inf/nan). @return false otherwise,
 * leaving @p out untouched.
 */
bool parseNumber(const std::string &text, double &out);

/** One non-empty clause of a script. */
struct ScriptClause
{
    const char *grammar = ""; //!< diagnostic prefix, e.g. "faults"
    std::string raw;          //!< the clause text as written
    std::vector<std::string> tok;

    /** Token @p i as a tick; fatal() naming the clause when malformed. */
    size_t tick(size_t i) const;

    /** Token @p i as a number; fatal() naming the clause when malformed. */
    double number(size_t i) const;
};

/**
 * Split script @p text into its non-empty clauses, in order. @p grammar
 * prefixes every diagnostic the clauses raise.
 */
std::vector<ScriptClause> readClauses(const std::string &text,
                                      const char *grammar);

} // namespace util
} // namespace nps

#endif // NPS_UTIL_SCRIPT_H
