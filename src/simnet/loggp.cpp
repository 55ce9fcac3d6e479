#include "simnet/loggp.hpp"

#include <cstdio>

#include "util/units.hpp"

namespace mrl::simnet {

SerCost::SerCost(double gbs)
    : gbs_(gbs), us_per_byte_(gbs > 0 ? gbs_to_us_per_byte(gbs) : 0.0) {}

double SerCost::ser_us_scaled(std::uint64_t bytes, double bw_scale) const {
  const double eff_gbs = gbs_ * bw_scale;
  if (eff_gbs == gbs_) return ser_us(bytes);  // pristine fast path, exact
  return static_cast<double>(bytes) * gbs_to_us_per_byte(eff_gbs);
}

std::string LogGP::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "LogGP{L=%.3fus o=%.3fus g=%.3fus per_stream=%.1fGB/s}", L_us,
                o_us, g_us, per_stream_gbs);
  return buf;
}

std::string to_string(Runtime r) {
  switch (r) {
    case Runtime::kTwoSidedMpi: return "two-sided MPI";
    case Runtime::kOneSidedMpi: return "one-sided MPI";
    case Runtime::kShmem: return "SHMEM (put-with-signal)";
  }
  return "unknown";
}

}  // namespace mrl::simnet
