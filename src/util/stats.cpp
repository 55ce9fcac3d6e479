#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/status.hpp"

namespace mrl {

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
