// Fig 10: splitting one big message into several smaller concurrent ones on
// Perlmutter GPUs — message VOLUME on the x-axis, speedup of k-way split.
//
// Headline: volumes larger than ~131 KiB gain up to ~2.9x from a 4-way
// split, because a single put stream rides one NVLink3 lane (25 GB/s) while
// four concurrent streams use all four (100 GB/s).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "core/plot.hpp"
#include "core/sweep.hpp"
#include "simnet/platform.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace mrl;
  const auto args = bench::Args::parse(argc, argv);
  bench::banner("fig10_split — message splitting on Perlmutter GPUs",
                "Fig 10 (volume on x-axis; >=131 KiB gains up to 2.9x)");

  core::SplitConfig cfg = core::SplitConfig::defaults();
  if (args.full) cfg.iters = 16;
  const auto pts = bench::unwrap(
      core::run_split_sweep(simnet::Platform::perlmutter_gpu(), cfg));

  core::AsciiPlot plot("Fig 10: achieved bandwidth by split factor",
                       "message volume (bytes)", "achieved GB/s");
  for (int ways : cfg.ways) {
    core::Series s;
    s.label = std::to_string(ways) + "-way split";
    s.symbol = "1248"[ways == 1 ? 0 : ways == 2 ? 1 : ways == 4 ? 2 : 3];
    for (const auto& p : pts) {
      if (p.ways != ways) continue;
      s.xs.push_back(static_cast<double>(p.volume_bytes));
      s.ys.push_back(p.gbs);
    }
    plot.add_series(std::move(s));
  }
  std::printf("%s\n", plot.render().c_str());

  TextTable t({"volume", "1-way", "2-way", "4-way", "8-way", "4-way speedup"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"volume_bytes", "ways", "time_us", "gbs", "speedup_vs_1"});
  for (std::uint64_t v : cfg.volumes) {
    std::string cells[4];
    double sp4 = 0;
    for (const auto& p : pts) {
      if (p.volume_bytes != v) continue;
      const int idx = p.ways == 1 ? 0 : p.ways == 2 ? 1 : p.ways == 4 ? 2 : 3;
      cells[idx] = format_gbs(p.gbs);
      if (p.ways == 4) sp4 = p.speedup_vs_1;
      csv.push_back({format_double(static_cast<double>(p.volume_bytes), 0),
                     std::to_string(p.ways), format_double(p.time_us, 3),
                     format_double(p.gbs, 3),
                     format_double(p.speedup_vs_1, 3)});
    }
    t.add_row({format_bytes(v), cells[0], cells[1], cells[2], cells[3],
               format_double(sp4, 2) + "x"});
  }
  std::printf("%s\n", t.render("split speedups (Perlmutter GPU)").c_str());

  double best = 0;
  for (const auto& p : pts) {
    if (p.ways == 4) best = std::max(best, p.speedup_vs_1);
  }
  std::printf("best 4-way speedup: %.2fx (paper: up to 2.9x)\n", best);
  bench::dump_csv("fig10_split", csv);
  return 0;
}
