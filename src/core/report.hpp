// Figure assembly: turns model ceilings + empirical points into the paper's
// Message Roofline figures (ASCII plot + table + CSV rows).
#pragma once

#include <string>
#include <vector>

#include "core/model.hpp"

namespace mrl::core {

/// A workload dot on the roofline (Fig 6): where an application's observed
/// (message size, msg/sync, sustained GB/s) sits against the ceilings.
struct WorkloadDot {
  std::string label;
  double bytes = 0;
  double msgs_per_sync = 1;
  double measured_gbs = 0;
};

/// One complete Message Roofline figure.
class RooflineFigure {
 public:
  RooflineFigure(std::string title, RooflineParams params);

  /// Adds the rounded-model ceiling curves for the given msg/sync values
  /// (each is a curve over message size).
  void add_model_curves(const std::vector<double>& msgs_per_sync,
                        double min_bytes = 8, double max_bytes = 4 << 20);

  /// Adds the sharp-model single-message roofline for reference.
  void add_sharp_curve(double min_bytes = 8, double max_bytes = 4 << 20);

  /// Adds empirical sweep points as one series.
  void add_points(const std::string& label, char symbol,
                  const std::vector<SweepPoint>& points);

  /// Adds a named workload dot.
  void add_dot(const WorkloadDot& dot);

  /// ASCII plot + parameter line + dot table.
  [[nodiscard]] std::string render() const;

  /// CSV rows: series,label,bytes,msgs_per_sync,gbs.
  [[nodiscard]] std::vector<std::vector<std::string>> csv_rows() const;

 private:
  struct PointSeries {
    std::string label;
    char symbol;
    std::vector<SweepPoint> points;
  };
  std::string title_;
  RooflineParams params_;
  std::vector<double> curve_msync_;
  double curve_min_bytes_ = 8;
  double curve_max_bytes_ = 4 << 20;
  bool sharp_ = false;
  std::vector<PointSeries> series_;
  std::vector<WorkloadDot> dots_;
};

}  // namespace mrl::core
