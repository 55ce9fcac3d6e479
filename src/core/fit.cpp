#include "core/fit.hpp"

#include <algorithm>
#include <cmath>

#include "util/status.hpp"

namespace mrl::core {

namespace {

constexpr int kCoordinatePasses = 60;  ///< coordinate-descent sweeps
constexpr int kRefineSteps = 40;       ///< golden-section steps per coordinate

double rms_log_error(const RooflineParams& p,
                     const std::vector<SweepPoint>& pts) {
  RooflineModel m(p);
  double acc = 0;
  for (const SweepPoint& pt : pts) {
    const double model = m.rounded_gbs(pt.bytes, pt.msgs_per_sync);
    const double e = std::log(model / pt.measured_gbs);
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(pts.size()));
}

/// Golden-section minimization of f over [lo, hi] (log-spaced parameter).
template <typename F>
double golden_min(F&& f, double lo, double hi, int steps) {
  constexpr double kInvPhi = 0.6180339887498949;
  double a = std::log(lo);
  double b = std::log(hi);
  double c = b - (b - a) * kInvPhi;
  double d = a + (b - a) * kInvPhi;
  double fc = f(std::exp(c));
  double fd = f(std::exp(d));
  for (int i = 0; i < steps; ++i) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - (b - a) * kInvPhi;
      fc = f(std::exp(c));
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + (b - a) * kInvPhi;
      fd = f(std::exp(d));
    }
  }
  return std::exp((a + b) / 2.0);
}

}  // namespace

FitResult fit_roofline(const std::vector<SweepPoint>& points) {
  MRL_CHECK_MSG(points.size() >= 3, "need at least 3 points to fit");
  for (const SweepPoint& p : points) {
    MRL_CHECK(p.bytes > 0 && p.msgs_per_sync >= 1 && p.measured_gbs > 0);
  }

  // Initial guesses: peak from the fastest observation; L from the slowest
  // small-message single-message point; o from the high-m asymptote.
  RooflineParams cur;
  cur.peak_gbs = 0;
  double min_bytes = points.front().bytes;
  for (const SweepPoint& p : points) {
    cur.peak_gbs = std::max(cur.peak_gbs, p.measured_gbs);
    min_bytes = std::min(min_bytes, p.bytes);
  }
  cur.peak_gbs *= 1.05;
  cur.L_us = 3.0;
  cur.o_us = 0.3;

  const double o_lo = 1e-3;
  const double o_hi = 100.0;
  const double l_lo = 1e-2;
  const double l_hi = 1e3;
  const double bw_lo = cur.peak_gbs * 0.2;
  const double bw_hi = cur.peak_gbs * 2.0;

  for (int pass = 0; pass < kCoordinatePasses; ++pass) {
    cur.o_us = golden_min(
        [&](double v) {
          RooflineParams t = cur;
          t.o_us = v;
          return rms_log_error(t, points);
        },
        o_lo, o_hi, kRefineSteps);
    cur.L_us = golden_min(
        [&](double v) {
          RooflineParams t = cur;
          t.L_us = v;
          return rms_log_error(t, points);
        },
        l_lo, l_hi, kRefineSteps);
    cur.peak_gbs = golden_min(
        [&](double v) {
          RooflineParams t = cur;
          t.peak_gbs = v;
          return rms_log_error(t, points);
        },
        bw_lo, bw_hi, kRefineSteps);
  }

  FitResult res;
  res.params = cur;
  res.rms_log_error = rms_log_error(cur, points);
  return res;
}

}  // namespace mrl::core
