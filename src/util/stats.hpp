// Streaming and batch summary statistics used by sweeps, traces and benches.
#pragma once

#include <cstddef>
#include <vector>

namespace mrl {

/// Online mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  // mean/variance/stddev/min/max return quiet NaN when no sample has been
  // added: an empty accumulator is not the same thing as one that observed
  // zeros, and reports must be able to tell them apart.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile over a sample (linear interpolation between order statistics).
/// q in [0,100]. Sample need not be sorted; a copy is sorted internally.
/// The sample must not contain NaN (checked — sorting NaNs is UB).
double percentile(std::vector<double> sample, double q);

/// Median convenience wrapper.
double median(std::vector<double> sample);

/// Simple least-squares fit of y = a + b*x. Returns {a, b}.
/// Requires xs.size() == ys.size() >= 2 with non-constant xs.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit linear_fit(const std::vector<double>& xs,
                     const std::vector<double>& ys);

/// Geometric mean of strictly positive values.
double geomean(const std::vector<double>& xs);

}  // namespace mrl
