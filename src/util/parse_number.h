#ifndef RUBIK_UTIL_PARSE_NUMBER_H
#define RUBIK_UTIL_PARSE_NUMBER_H

/**
 * @file
 * The one text-to-number conversion for outside input: CLI flags,
 * sweep and fault specs, trace CSV fields, ledger records, serve
 * protocol tokens, lock files and environment variables.
 *
 * The grammar is std::from_chars': the whole token is one decimal
 * number (an optional '-', digits, and for floating types an optional
 * fraction and exponent), its value is finite, and it lies in
 * [lo, hi]. strtod/strtol accepted more, and all of it is now
 * rejected: leading or trailing whitespace, a '+' sign, hex ("0x10")
 * and hex floats, "inf"/"nan", and values the type cannot hold
 * (1e400, 1e-400, an int past INT_MAX). Formats that allow padding
 * (CSV fields, spec values) trim before parsing. Decimal doubles round
 * exactly as strtod does, so every token both accept gives the same
 * value.
 */

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace rubik {

/**
 * Parse `tok` as a T in [lo, hi]; nullopt when the token breaks the
 * grammar above. `base` applies to integral T only (16: the bare hex
 * digits a ledger checksum is written in, no "0x").
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view tok, T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max(), int base = 10)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    const char *const end = tok.data() + tok.size();
    T v{};
    std::from_chars_result r;
    if constexpr (std::is_integral_v<T>)
        r = std::from_chars(tok.data(), end, v, base);
    else
        r = std::from_chars(tok.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return std::nullopt;
    }
    if (v < lo || v > hi)
        return std::nullopt;
    return v;
}

/**
 * Parse a `sep`-separated list of numbers, each by parseNumber: "0.3,0.5"
 * for a list flag, "1/4" for a shard, "0-6" for a cell range. Every
 * item must parse, so an empty item ("0.5,", ",1", "") fails the list.
 */
template <typename T>
std::optional<std::vector<T>>
parseNumberList(std::string_view text, char sep,
                T lo = std::numeric_limits<T>::lowest(),
                T hi = std::numeric_limits<T>::max())
{
    std::vector<T> items;
    while (true) {
        const std::size_t at = text.find(sep);
        const std::optional<T> v =
            parseNumber<T>(text.substr(0, at), lo, hi);
        if (!v)
            return std::nullopt;
        items.push_back(*v);
        if (at == std::string_view::npos)
            return items;
        text.remove_prefix(at + 1);
    }
}

} // namespace rubik

#endif // RUBIK_UTIL_PARSE_NUMBER_H
