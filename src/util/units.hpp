// Unit formatting/parsing helpers shared by benches and reports.
//
// Conventions used throughout msgroof (matching the paper):
//   time       — microseconds (double, "us")
//   bandwidth  — GB/s with GB = 1e9 bytes (network convention)
//   sizes      — bytes; pretty-printed with binary prefixes (KiB/MiB)
#pragma once

#include <cstdint>
#include <string>

namespace mrl {

/// Bytes transferred in t_us microseconds -> GB/s (GB = 1e9 B).
double bytes_per_us_to_gbs(double bytes, double t_us);

/// GB/s -> microseconds per byte (the LogGP "G" parameter).
double gbs_to_us_per_byte(double gbs);

/// "4 KiB", "131 KiB", "2 MiB", "24 B" — binary prefixes.
std::string format_bytes(std::uint64_t bytes);

/// "3.30 us", "1.25 ms", "2.00 s" — picks a readable scale.
std::string format_time_us(double us);

/// "32.00 GB/s", "512.00 MB/s".
std::string format_gbs(double gbs);

/// Fixed-precision double without trailing garbage: format_double(3.14159, 2)
/// == "3.14".
std::string format_double(double v, int precision);

/// "1e+06"-style compact count used on msg/sync axes.
std::string format_count(std::uint64_t n);

}  // namespace mrl
