#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mrl {

std::optional<long long> parse_i64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<unsigned long long> parse_u64(std::string_view s, int base) {
  if (s.empty() || s.front() == '-' || s.front() == '+' ||
      std::isspace(static_cast<unsigned char>(s.front()))) {
    return std::nullopt;
  }
  // strtoull handles the 0x/0 prefixes from_chars does not; strictness is
  // restored by requiring full consumption and checking ERANGE.
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, base);
  if (end != buf.c_str() + buf.size() || end == buf.c_str() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_f64(std::string_view s) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front()))) {
    return std::nullopt;
  }
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || end == buf.c_str() ||
      errno == ERANGE || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<long long> parse_min_int(std::string_view s, long long min,
                                       std::string_view what,
                                       std::string* error, long long max) {
  const auto v = parse_i64(s);
  if (!v || *v < min || *v > max) {
    *error = "invalid " + std::string(what) + " '" + std::string(s) +
             "' (need an integer in [" + std::to_string(min) + ", " +
             std::to_string(max) + "])";
    return std::nullopt;
  }
  return v;
}

std::optional<long long> parse_cli_int(const char* s, long long min,
                                       const char* what, long long max) {
  std::string error;
  const auto v = parse_min_int(s != nullptr ? s : "", min, what, &error, max);
  if (!v) std::fprintf(stderr, "%s\n", error.c_str());
  return v;
}

}  // namespace mrl
