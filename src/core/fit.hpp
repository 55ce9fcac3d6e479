// Fitting Message Roofline parameters (o, L, peak) from empirical sweep
// points — "the diagonal ceilings (latency lines) are inferred based [on]
// the empirical data" (paper Figs 1, 3, 4).
#pragma once

#include <vector>

#include "core/model.hpp"

namespace mrl::core {

struct FitResult {
  RooflineParams params;
  double rms_log_error = 0;  ///< RMS of log(model/measured)
};

/// Fits the rounded Message Roofline model to measured (B, m, GB/s) points
/// by minimizing squared log-bandwidth error with bounded coordinate
/// descent. Robust to the usual sweep shapes (needs points in both the
/// latency-bound and bandwidth-bound regimes for a well-conditioned fit).
FitResult fit_roofline(const std::vector<SweepPoint>& points);

}  // namespace mrl::core
