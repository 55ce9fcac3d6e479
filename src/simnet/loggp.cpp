#include "simnet/loggp.hpp"

#include "util/units.hpp"

namespace mrl::simnet {

SerCost::SerCost(double gbs)
    : gbs_(gbs), us_per_byte_(gbs > 0 ? gbs_to_us_per_byte(gbs) : 0.0) {}

double SerCost::ser_us_scaled(std::uint64_t bytes, double bw_scale) const {
  const double eff_gbs = gbs_ * bw_scale;
  if (eff_gbs == gbs_) return ser_us(bytes);  // pristine fast path, exact
  return static_cast<double>(bytes) * gbs_to_us_per_byte(eff_gbs);
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
