#include "base/strutil.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "base/status.hh"

namespace lkmm
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
        s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string
join(const std::vector<std::string> &pieces, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

std::string
humanCount(std::uint64_t n)
{
    auto render = [](double value, char suffix) {
        char buf[32];
        if (value >= 100.0)
            std::snprintf(buf, sizeof(buf), "%.0f%c", value, suffix);
        else if (value >= 10.0)
            std::snprintf(buf, sizeof(buf), "%.0f%c", value, suffix);
        else
            std::snprintf(buf, sizeof(buf), "%.1f%c", value, suffix);
        return std::string(buf);
    };

    if (n >= 1000000000ULL)
        return render(static_cast<double>(n) / 1e9, 'G');
    if (n >= 1000000ULL)
        return render(static_cast<double>(n) / 1e6, 'M');
    if (n >= 1000ULL)
        return render(static_cast<double>(n) / 1e3, 'k');
    return std::to_string(n);
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);

    std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
    if (needed > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            "bad value '" + text + "' for " + flag +
                " (expected decimal digits, at most " +
                std::to_string(max) + ")"));
    }
    return v;
}

double
parseFactor(const std::string &flag, const std::string &text)
{
    double v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, v, std::chars_format::fixed);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 1.0) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            "bad value '" + text + "' for " + flag +
                " (expected a finite decimal, at least 1)"));
    }
    return v;
}

} // namespace lkmm
