#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::core {

double RooflineParams::G_us_per_byte() const {
  return gbs_to_us_per_byte(peak_gbs);
}

std::string RooflineParams::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "Roofline{o=%.3fus L=%.3fus peak=%.1fGB/s}",
                o_us, L_us, peak_gbs);
  return buf;
}

double RooflineModel::sharp_gbs(double bytes, double m) const {
  MRL_CHECK(bytes > 0 && m >= 1);
  const double t = std::max({m * p_.o_us, p_.L_us,
                             m * bytes * p_.G_us_per_byte()});
  return bytes_per_us_to_gbs(m * bytes, t);
}

double RooflineModel::sync_time_us(double bytes, double m) const {
  MRL_CHECK(bytes > 0 && m >= 1);
  return m * p_.o_us + std::max(p_.L_us, m * bytes * p_.G_us_per_byte());
}

double RooflineModel::rounded_gbs(double bytes, double m) const {
  return bytes_per_us_to_gbs(m * bytes, sync_time_us(bytes, m));
}

double RooflineModel::effective_latency_us(double bytes, double m) const {
  return sync_time_us(bytes, m) / m;
}

double RooflineModel::knee_bytes(double m) const {
  MRL_CHECK(m >= 1);
  const double bound = std::max(m * p_.o_us, p_.L_us);
  return bound / (m * p_.G_us_per_byte());
}

double RooflineModel::overlap_headroom(double bytes) const {
  const double bw1 = rounded_gbs(bytes, 1.0);
  const double bw_inf =
      bytes_per_us_to_gbs(bytes, p_.o_us + bytes * p_.G_us_per_byte());
  return bw_inf / bw1;
}

}  // namespace mrl::core
