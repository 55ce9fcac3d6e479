// Fig 4: NVSHMEM GPU-initiated put-with-signal bandwidth and atomic CAS on
// Perlmutter and Summit GPUs.
//
// Headlines: latency 4 us -> 0.5 us on Perlmutter GPUs (vs 5 us -> 0.3 us on
// Perlmutter CPUs) with much higher bandwidth; CAS costs 0.8 us (Perlmutter),
// 1.0 us intra-socket / 1.6 us cross-socket (Summit dumbbell).
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "core/fit.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "simnet/platform.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace mrl;
  const auto args = bench::Args::parse(argc, argv);
  bench::banner("fig04_gpu_putsignal — GPU-initiated put-with-signal + CAS",
                "Fig 4 (a: Perlmutter GPU, b: Summit GPU)");

  std::vector<std::vector<std::string>> csv;
  csv.push_back({"platform", "bytes", "msgs_per_sync", "gbs",
                 "eff_latency_us"});

  struct Case {
    simnet::Platform plat;
    const char* sub;
  };
  const Case cases[] = {{simnet::Platform::perlmutter_gpu(), "(a)"},
                        {simnet::Platform::summit_gpu(), "(b)"}};

  // Both platform sweeps run concurrently into pre-assigned slots; the
  // rendering loop below keeps the fixed (a), (b) order at any --jobs.
  const int jobs = core::resolve_jobs(args.jobs);
  std::vector<core::SweepPoint> results[2];
  core::parallel_for_indexed(2, jobs, [&](int, std::size_t i) {
    core::SweepConfig cfg =
        core::SweepConfig::defaults(core::SweepKind::kShmemPutSignal);
    if (!args.full) cfg.iters = 4;
    cfg.jobs = std::max(1, jobs / 2);  // split the budget across platforms
    results[i] = bench::unwrap(core::run_sweep(cases[i].plat, cfg));
  });

  for (std::size_t ci = 0; ci < 2; ++ci) {
    const Case& cs = cases[ci];
    const auto& pts = results[ci];
    const auto fit = core::fit_roofline(pts);

    core::RooflineFigure fig(
        std::string("Fig 4") + cs.sub + ": " + cs.plat.name() +
            " put-with-signal",
        fit.params);
    fig.add_model_curves({1, 100, 10000});
    fig.add_points("put_signal_nbi (measured)", '*', pts);
    std::printf("%s\n", fig.render().c_str());

    double lat1 = 0, lat_hi = 0;
    for (const auto& p : pts) {
      if (p.bytes == 8 && p.msgs_per_sync == 1) lat1 = p.eff_latency_us;
      if (p.bytes == 8 && p.msgs_per_sync == 10000) lat_hi = p.eff_latency_us;
    }
    std::printf("latency range (8 B): %s -> %s per message\n\n",
                format_time_us(lat1).c_str(), format_time_us(lat_hi).c_str());

    for (const auto& p : pts) {
      csv.push_back({cs.plat.name(), format_double(p.bytes, 0),
                     format_double(p.msgs_per_sync, 0),
                     format_double(p.measured_gbs, 4),
                     format_double(p.eff_latency_us, 4)});
    }
  }

  // Atomic compare-and-swap latencies (the paper's Sec III-C numbers).
  TextTable t({"platform", "pair", "CAS latency", "paper"});
  t.add_row({"Perlmutter GPU", "gpu1 -> gpu0",
             format_time_us(bench::unwrap(core::measure_cas_latency_us(
                 simnet::Platform::perlmutter_gpu(), 4, 1, 0))),
             "0.8 us"});
  t.add_row({"Summit GPU", "gpu1 -> gpu0 (intra-socket)",
             format_time_us(bench::unwrap(core::measure_cas_latency_us(
                 simnet::Platform::summit_gpu(), 6, 1, 0))),
             "1.0 us"});
  t.add_row({"Summit GPU", "gpu4 -> gpu0 (cross-socket)",
             format_time_us(bench::unwrap(core::measure_cas_latency_us(
                 simnet::Platform::summit_gpu(), 6, 4, 0))),
             "1.6 us"});
  std::printf("%s\n", t.render("atomic compare-and-swap").c_str());

  bench::dump_csv("fig04_gpu_putsignal", csv);
  return 0;
}
