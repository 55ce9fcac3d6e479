#include "core/report.hpp"

#include <cmath>
#include <sstream>

#include "core/plot.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace mrl::core {

RooflineFigure::RooflineFigure(std::string title, RooflineParams params)
    : title_(std::move(title)), params_(params) {}

void RooflineFigure::add_model_curves(const std::vector<double>& msgs_per_sync,
                                      double min_bytes, double max_bytes) {
  curve_msync_ = msgs_per_sync;
  curve_min_bytes_ = min_bytes;
  curve_max_bytes_ = max_bytes;
}

void RooflineFigure::add_sharp_curve(double min_bytes, double max_bytes) {
  sharp_ = true;
  curve_min_bytes_ = min_bytes;
  curve_max_bytes_ = max_bytes;
}

void RooflineFigure::add_points(const std::string& label, char symbol,
                                const std::vector<SweepPoint>& points) {
  series_.push_back(PointSeries{label, symbol, points});
}

void RooflineFigure::add_dot(const WorkloadDot& dot) { dots_.push_back(dot); }

std::string RooflineFigure::render() const {
  RooflineModel model(params_);
  AsciiPlot plot(title_, "message size (bytes)", "sustained bandwidth (GB/s)");

  auto sample_sizes = [&] {
    std::vector<double> xs;
    for (double b = curve_min_bytes_; b <= curve_max_bytes_; b *= 1.5) {
      xs.push_back(b);
    }
    return xs;
  };

  static const char kCurveSymbols[] = {'.', ',', ':', ';', '\'', '`'};
  int ci = 0;
  for (double m : curve_msync_) {
    Series s;
    std::ostringstream label;
    label << "rounded model, msg/sync=" << m;
    s.label = label.str();
    s.symbol = kCurveSymbols[ci++ % 6];
    for (double b : sample_sizes()) {
      s.xs.push_back(b);
      s.ys.push_back(model.rounded_gbs(b, m));
    }
    plot.add_series(std::move(s));
  }
  if (sharp_) {
    Series s;
    s.label = "sharp model, msg/sync=1";
    s.symbol = '-';
    for (double b : sample_sizes()) {
      s.xs.push_back(b);
      s.ys.push_back(model.sharp_gbs(b, 1));
    }
    plot.add_series(std::move(s));
  }
  for (const PointSeries& ps : series_) {
    Series s;
    s.label = ps.label;
    s.symbol = ps.symbol;
    for (const SweepPoint& p : ps.points) {
      s.xs.push_back(p.bytes);
      s.ys.push_back(p.measured_gbs);
    }
    plot.add_series(std::move(s));
  }
  int di = 0;
  static const char kDotSymbols[] = {'O', 'X', 'H', 'S', 'D'};
  for (const WorkloadDot& d : dots_) {
    Series s;
    s.label = d.label + " (msg/sync=" + format_double(d.msgs_per_sync, 1) +
              ", " + format_bytes(static_cast<std::uint64_t>(d.bytes)) + ")";
    s.symbol = kDotSymbols[di++ % 5];
    s.xs = {d.bytes};
    s.ys = {d.measured_gbs};
    plot.add_series(std::move(s));
  }

  std::ostringstream os;
  os << plot.render();
  os << "model: " << params_.to_string() << '\n';
  if (!dots_.empty()) {
    TextTable t({"workload", "msg size", "msg/sync", "sustained",
                 "rounded bound", "% of bound"});
    RooflineModel m(params_);
    for (const WorkloadDot& d : dots_) {
      const double bound = m.rounded_gbs(d.bytes, d.msgs_per_sync);
      t.add_row({d.label, format_bytes(static_cast<std::uint64_t>(d.bytes)),
                 format_double(d.msgs_per_sync, 1), format_gbs(d.measured_gbs),
                 format_gbs(bound),
                 format_double(100.0 * d.measured_gbs / bound, 1)});
    }
    os << t.render("workload dots vs Message Roofline bound");
  }
  return os.str();
}

std::vector<std::vector<std::string>> RooflineFigure::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"series", "bytes", "msgs_per_sync", "gbs"});
  RooflineModel model(params_);
  for (double m : curve_msync_) {
    for (double b = curve_min_bytes_; b <= curve_max_bytes_; b *= 2) {
      rows.push_back({"model_m" + format_double(m, 0), format_double(b, 0),
                      format_double(m, 0),
                      format_double(model.rounded_gbs(b, m), 4)});
    }
  }
  for (const PointSeries& ps : series_) {
    for (const SweepPoint& p : ps.points) {
      rows.push_back({ps.label, format_double(p.bytes, 0),
                      format_double(p.msgs_per_sync, 0),
                      format_double(p.measured_gbs, 4)});
    }
  }
  for (const WorkloadDot& d : dots_) {
    rows.push_back({"dot:" + d.label, format_double(d.bytes, 0),
                    format_double(d.msgs_per_sync, 2),
                    format_double(d.measured_gbs, 4)});
  }
  return rows;
}

}  // namespace mrl::core
