#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/status.hpp"

namespace mrl {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}


namespace {
// An empty accumulator has no mean/min/max; NaN is unambiguous where 0.0
// would be indistinguishable from a legitimate zero in a report.
constexpr double kNoSample = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double RunningStats::mean() const { return n_ ? mean_ : kNoSample; }

double RunningStats::variance() const {
  if (n_ == 0) return kNoSample;
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ ? min_ : kNoSample; }

double RunningStats::max() const { return n_ ? max_ : kNoSample; }

double percentile(std::vector<double> sample, double q) {
  MRL_CHECK(!sample.empty());
  MRL_CHECK(q >= 0.0 && q <= 100.0);
  // NaN has no order: std::sort on a NaN-containing range is undefined
  // behavior and would silently scramble the order statistics.
  for (const double x : sample) {
    MRL_CHECK_MSG(!std::isnan(x), "percentile over a NaN-containing sample");
  }
  std::sort(sample.begin(), sample.end());
  if (sample.size() == 1) return sample[0];
  const double pos = q / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] * (1.0 - frac) + sample[hi] * frac;
}

double median(std::vector<double> sample) {
  return percentile(std::move(sample), 50.0);
}

LinearFit linear_fit(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  MRL_CHECK(xs.size() == ys.size());
  MRL_CHECK(xs.size() >= 2);
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  MRL_CHECK_MSG(std::abs(denom) > 1e-300, "x values must not be constant");
  LinearFit f;
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - (f.intercept + f.slope * xs[i]);
    ss_res += e * e;
  }
  f.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

double geomean(const std::vector<double>& xs) {
  MRL_CHECK(!xs.empty());
  double acc = 0.0;
  for (double x : xs) {
    MRL_CHECK(x > 0.0);
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace mrl
