// Strict numeric parsing for CLI front-ends.
//
// std::atoi turns any garbage ("banana", "", "12x") into 0 without a word,
// which silently becomes a 0-rank or 0-iteration run. These parsers consume
// the ENTIRE string or fail, reject leading whitespace, and surface range
// errors, so every demo/CLI can reject bad arguments with a usage error.
#pragma once

#include <climits>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mrl {

/// Base-10 signed integer: optional leading '-', digits, nothing else.
[[nodiscard]] std::optional<long long> parse_i64(std::string_view s);

/// Unsigned integer. base 0 accepts 0x/0 prefixes (like strtoull).
[[nodiscard]] std::optional<unsigned long long> parse_u64(std::string_view s,
                                                          int base = 10);

/// Finite floating-point number (rejects "nan"/"inf" and trailing junk).
[[nodiscard]] std::optional<double> parse_f64(std::string_view s);

/// Parses `s` as an integer in [`min`, `max`]. `max` defaults to INT_MAX so
/// a value the caller stores in an int is rejected rather than narrowed
/// (2^32 + 4 would become 4). On failure returns nullopt and sets `*error`
/// to "invalid <what> '<s>' (need an integer in [<min>, <max>])".
[[nodiscard]] std::optional<long long> parse_min_int(std::string_view s,
                                                     long long min,
                                                     std::string_view what,
                                                     std::string* error,
                                                     long long max = INT_MAX);

/// CLI convenience: parse_min_int, printing "invalid <what> '<s>' ..." to
/// stderr on failure. Callers just need `if (!v) usage();`.
[[nodiscard]] std::optional<long long> parse_cli_int(const char* s,
                                                     long long min,
                                                     const char* what,
                                                     long long max = INT_MAX);

}  // namespace mrl
