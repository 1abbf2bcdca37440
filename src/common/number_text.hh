/**
 * @file
 * The one strict grammar for numbers read from text: CLI flags,
 * mitigator and fault specs, environment knobs, result lines, run
 * requests, the serve protocol and the result store all accept and
 * reject the same tokens.
 *
 *   - An integer is one or more ASCII digits and nothing else (no
 *     sign, whitespace or base prefix), and must fit its destination:
 *     "-1" is not a count, 4294967365 is not a 32-bit hammer count.
 *   - A double is one whole strtod token with no leading whitespace.
 *
 * Both parsers leave @p out untouched when they reject.
 */

#ifndef MOATSIM_COMMON_NUMBER_TEXT_HH
#define MOATSIM_COMMON_NUMBER_TEXT_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace moatsim
{

/** Strict decimal integer: digits only, at most T's maximum. */
template <std::integral T>
bool
parseDecimal(std::string_view text, T *out)
{
    // from_chars into an unsigned type takes digits only and reports
    // overflow.
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end ||
        v > static_cast<uint64_t>(std::numeric_limits<T>::max()))
        return false;
    *out = static_cast<T>(v);
    return true;
}

/** Strict double: all of @p text is one strtod number. */
bool parseDouble(std::string_view text, double *out);

/** @p v as exactly @p digits lowercase hex digits, zero-padded. */
std::string hexText(uint64_t v, int digits);

} // namespace moatsim

#endif // MOATSIM_COMMON_NUMBER_TEXT_HH
