// Batch summary statistics used by benches, reports and perfbench.
#pragma once

#include <vector>

namespace mrl {

/// Percentile over a sample (linear interpolation between order statistics).
/// q in [0,100]. Sample need not be sorted; a copy is sorted internally.
/// The sample must not contain NaN (checked — sorting NaNs is UB).
double percentile(std::vector<double> sample, double q);

/// Median convenience wrapper.
double median(std::vector<double> sample);

/// Geometric mean of strictly positive values.
double geomean(const std::vector<double>& xs);

}  // namespace mrl
