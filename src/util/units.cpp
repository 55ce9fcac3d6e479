#include "util/units.hpp"

#include <cmath>
#include <cstdio>

#include "util/status.hpp"

namespace mrl {

double bytes_per_us_to_gbs(double bytes, double t_us) {
  MRL_CHECK(t_us > 0.0);
  // bytes / us = 1e6 bytes/s; GB/s = 1e9 bytes/s.
  return bytes / t_us * 1e-3;
}

double gbs_to_us_per_byte(double gbs) {
  MRL_CHECK(gbs > 0.0);
  return 1e-3 / gbs;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string format_bytes(std::uint64_t bytes) {
  constexpr std::uint64_t kKiB = 1024;
  constexpr std::uint64_t kMiB = kKiB * 1024;
  constexpr std::uint64_t kGiB = kMiB * 1024;
  char buf[64];
  if (bytes >= kGiB && bytes % kGiB == 0) {
    std::snprintf(buf, sizeof(buf), "%llu GiB",
                  static_cast<unsigned long long>(bytes / kGiB));
  } else if (bytes >= kMiB && bytes % kMiB == 0) {
    std::snprintf(buf, sizeof(buf), "%llu MiB",
                  static_cast<unsigned long long>(bytes / kMiB));
  } else if (bytes >= kKiB && bytes % kKiB == 0) {
    std::snprintf(buf, sizeof(buf), "%llu KiB",
                  static_cast<unsigned long long>(bytes / kKiB));
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / static_cast<double>(kMiB));
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / static_cast<double>(kKiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string format_time_us(double us) {
  char buf[64];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f s", us * 1e-6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", us * 1e-3);
  } else if (us >= 1.0 || us == 0.0) {
    std::snprintf(buf, sizeof(buf), "%.2f us", us);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", us * 1e3);
  }
  return buf;
}

std::string format_gbs(double gbs) {
  char buf[64];
  if (gbs >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GB/s", gbs);
  } else if (gbs >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f MB/s", gbs * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f KB/s", gbs * 1e6);
  }
  return buf;
}

std::string format_count(std::uint64_t n) {
  char buf[64];
  if (n >= 1000000 && n % 1000000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(n / 1000000));
  } else if (n >= 1000 && n % 1000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(n / 1000));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(n));
  }
  return buf;
}

}  // namespace mrl
