/**
 * @file
 * Small string helpers shared by the parsers, table printers and
 * command-line front ends.
 */

#ifndef LKMM_BASE_STRUTIL_HH
#define LKMM_BASE_STRUTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lkmm
{

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Split on a separator character; does not merge empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** True when s starts with the given prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** True when s ends with the given suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/** Join pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &sep);

/** Render a count the way the paper does: 741k, 57M, 15G. */
std::string humanCount(std::uint64_t n);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Parse the value of a numeric command-line flag: plain decimal
 * digits whose value is at most `max`.  Anything else — a sign, an
 * exponent, a suffix, an overflow — throws
 * StatusError(InvalidArgument) naming `flag`.
 */
std::uint64_t parseCount(const std::string &flag, const std::string &text,
                         std::uint64_t max = UINT64_MAX);

/**
 * Parse the value of a scale-factor flag: a finite decimal such as
 * "8" or "1.5" that is at least 1.  Anything else — a suffix, an
 * exponent, nan, inf, a value below 1 — throws
 * StatusError(InvalidArgument) naming `flag`.
 */
double parseFactor(const std::string &flag, const std::string &text);

/** parseCount for a duration flag, capped so it fits in nanoseconds. */
template <typename Duration>
Duration
parseDuration(const std::string &flag, const std::string &text)
{
    const auto max = std::chrono::duration_cast<Duration>(
                         std::chrono::nanoseconds::max())
                         .count();
    return Duration(static_cast<typename Duration::rep>(
        parseCount(flag, text, static_cast<std::uint64_t>(max))));
}

} // namespace lkmm

#endif // LKMM_BASE_STRUTIL_HH
