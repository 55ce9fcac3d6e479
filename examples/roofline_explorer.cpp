// Roofline explorer: interactive-ish CLI over the Message Roofline model —
// pick a platform and a runtime, get the calibrated roofline, the knees,
// and a bound lookup for your application's (message size, msg/sync) point.
//
// Usage: ./examples/roofline_explorer [platform] [runtime] [bytes] [msgsync]
//   platform, runtime: a name from msgroof_cli's table (core/cli.hpp);
//   defaults perlmutter-cpu, and shmem on GPU platforms, two-sided on CPU
//   bytes > 0 (default 4096), msgsync >= 1 (default 4)
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/fit.hpp"
#include "core/model.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "simnet/platform.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace mrl;
  util::FlagSet fs(
      "[platform] [runtime] [bytes] [msgsync]",
      "platforms: " + cli::platform_names() +
          "\nruntimes: " + cli::runtime_names() +
          "\nbytes > 0 (default 4096), msgsync >= 1 (default 4)\n");
  const std::vector<std::string> pos = fs.parse(argc, argv);
  if (pos.size() > 4) fs.fail("unexpected argument '" + pos[4] + "'");
  const std::string plat_name = pos.size() > 0 ? pos[0] : "perlmutter-cpu";
  const bool gpu = plat_name.find("gpu") != std::string::npos;
  const std::string rt_name =
      pos.size() > 1 ? pos[1] : (gpu ? "shmem" : "two-sided");
  auto number = [&pos](std::size_t i, double fallback) {
    return i < pos.size() ? parse_f64(pos[i]) : std::optional<double>(fallback);
  };
  const std::optional<double> bytes_arg = number(2, 4096.0);
  if (!bytes_arg || *bytes_arg <= 0) {
    fs.fail("invalid bytes '" + pos[2] + "' (need a number > 0)");
  }
  const std::optional<double> msync_arg = number(3, 4.0);
  if (!msync_arg || *msync_arg < 1) {
    fs.fail("invalid msgs/sync '" + pos[3] + "' (need a number >= 1)");
  }
  const double bytes = *bytes_arg;
  const double msync = *msync_arg;

  Result<simnet::Platform> found = cli::platform_by_name(plat_name);
  if (!found.is_ok()) fs.fail(found.status().message());
  const simnet::Platform plat = std::move(found).value();
  const Result<core::SweepKind> kind_r = cli::sweep_kind_by_name(rt_name);
  if (!kind_r.is_ok()) fs.fail(kind_r.status().message());
  const core::SweepKind kind = kind_r.value();

  std::printf("calibrating %s / %s (running sweeps on the simulated fabric)"
              "...\n\n", plat.name().c_str(), core::to_string(kind).c_str());
  const auto calib = core::calibrate_roofline(plat, kind);
  if (!calib.is_ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 calib.status().to_string().c_str());
    return 1;
  }
  const core::RooflineParams params = calib.value();
  core::RooflineModel model(params);

  core::RooflineFigure fig(plat.name() + " — " + core::to_string(kind),
                           params);
  fig.add_model_curves({1, 10, 100, 1000, 1e5});
  fig.add_sharp_curve();
  fig.add_dot({"your app", bytes, msync, model.rounded_gbs(bytes, msync)});
  std::printf("%s\n", fig.render().c_str());

  TextTable t({"quantity", "value"});
  t.add_row({"fitted o (per-op overhead)", format_time_us(params.o_us)});
  t.add_row({"fitted L (latency)", format_time_us(params.L_us)});
  t.add_row({"fitted peak bandwidth", format_gbs(params.peak_gbs)});
  t.add_row({"roofline knee @ 1 msg/sync",
             format_bytes(static_cast<std::uint64_t>(model.knee_bytes(1)))});
  t.add_row({"bound for your point",
             format_gbs(model.rounded_gbs(bytes, msync))});
  t.add_row({"effective latency for your point",
             format_time_us(model.effective_latency_us(bytes, msync))});
  t.add_row({"overlap headroom at your size",
             format_double(model.overlap_headroom(bytes), 2) + "x"});
  std::printf("%s\n", t.render("model card").c_str());
  return 0;
}
