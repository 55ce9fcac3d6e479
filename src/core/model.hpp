// The Message Roofline Model (the paper's Section II).
//
// Sustained messaging bandwidth as a function of message size B and the
// number of messages per synchronization m, bounded by LogGP parameters:
//
//   sharp:    BW(B, m) = m*B / max(m*o, L, m*B*G)
//   rounded:  BW(B, m) = m*B / (m*o + max(L, m*B*G))
//
// The sharp model is the idealized roofline (its diagonal/horizontal
// junction is "a region one can never practically reach"); the rounded model
// matches empirical data because the per-operation overhead o can never be
// overlapped. Latency lines (diagonal ceilings) are BW = B / L_eff.
#pragma once

#include <string>
#include <vector>

#include "simnet/loggp.hpp"

namespace mrl::core {

/// Model parameters: LogGP costs plus the bandwidth ceiling.
struct RooflineParams {
  double o_us = 0.3;       ///< per-message overhead (not overlappable)
  double L_us = 3.0;       ///< latency (overlappable across messages)
  double peak_gbs = 32.0;  ///< bandwidth ceiling (1/G)

  /// us per byte at the ceiling.
  [[nodiscard]] double G_us_per_byte() const;

  [[nodiscard]] std::string to_string() const;
};

class RooflineModel {
 public:
  explicit RooflineModel(RooflineParams p) : p_(p) {}

  [[nodiscard]] const RooflineParams& params() const { return p_; }

  /// Sharp-model sustained bandwidth (GB/s) for m messages of B bytes/sync.
  [[nodiscard]] double sharp_gbs(double bytes, double msgs_per_sync) const;

  /// Rounded-model sustained bandwidth (GB/s).
  [[nodiscard]] double rounded_gbs(double bytes, double msgs_per_sync) const;

  /// Total rounded-model time for one synchronization window (us).
  [[nodiscard]] double sync_time_us(double bytes, double msgs_per_sync) const;

  /// Effective per-message latency: sync_time / m (the "latency line" a
  /// workload dot sits on).
  [[nodiscard]] double effective_latency_us(double bytes,
                                            double msgs_per_sync) const;

  /// Message size where the sharp model turns bandwidth-bound for a given
  /// msgs/sync (the roofline knee): smallest B with m*B*G >= max(m*o, L).
  [[nodiscard]] double knee_bytes(double msgs_per_sync) const;

  /// Max speedup available from overlapping (m -> inf vs m = 1) at size B.
  [[nodiscard]] double overlap_headroom(double bytes) const;

 private:
  RooflineParams p_;
};

/// One empirical observation to plot against / fit to the model.
struct SweepPoint {
  double bytes = 0;
  double msgs_per_sync = 1;
  double measured_gbs = 0;
  double eff_latency_us = 0;
};

}  // namespace mrl::core
