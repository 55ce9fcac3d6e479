// core: Message Roofline model identities, parameter fitting, sweeps, splits,
// and the parallel sweep runner's determinism guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fit.hpp"
#include "core/model.hpp"
#include "core/parallel.hpp"
#include "core/plot.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "simnet/platform.hpp"

namespace mrl::core {
namespace {

RooflineParams params() { return RooflineParams{0.3, 3.0, 32.0}; }

TEST(Model, SharpNeverBelowRounded) {
  RooflineModel m(params());
  for (double b = 8; b <= (16 << 20); b *= 3.7) {
    for (double msync : {1.0, 10.0, 100.0, 1e4, 1e6}) {
      EXPECT_GE(m.sharp_gbs(b, msync), m.rounded_gbs(b, msync) - 1e-12)
          << "B=" << b << " m=" << msync;
    }
  }
}

TEST(Model, BandwidthMonotonicInMsgsPerSync) {
  RooflineModel m(params());
  for (double b = 8; b <= (1 << 20); b *= 4) {
    double prev = 0;
    for (double msync = 1; msync <= 1e6; msync *= 10) {
      const double bw = m.rounded_gbs(b, msync);
      EXPECT_GE(bw, prev - 1e-12);
      prev = bw;
    }
  }
}

TEST(Model, LargeMessagesApproachPeak) {
  RooflineModel m(params());
  EXPECT_NEAR(m.rounded_gbs(256 << 20, 1), 32.0, 0.5);
  EXPECT_LT(m.rounded_gbs(8, 1), 0.1);  // latency-bound regime
}

TEST(Model, SharpModelEqualsPaperFormula) {
  // B / max(o, L, B*G) for one message.
  RooflineModel m(params());
  const double B = 1024;
  const double G = params().G_us_per_byte();
  const double expect = B / std::max({0.3, 3.0, B * G}) * 1e-3;
  EXPECT_NEAR(m.sharp_gbs(B, 1), expect, 1e-12);
}

TEST(Model, RoundedModelEqualsPaperFormula) {
  // B / (o + max(L, B*G)) for one message.
  RooflineModel m(params());
  const double B = 65536;
  const double G = params().G_us_per_byte();
  const double expect = B / (0.3 + std::max(3.0, B * G)) * 1e-3;
  EXPECT_NEAR(m.rounded_gbs(B, 1), expect, 1e-12);
}

TEST(Model, EffectiveLatencyShrinksWithOverlap) {
  RooflineModel m(params());
  const double l1 = m.effective_latency_us(8, 1);
  const double l100 = m.effective_latency_us(8, 100);
  EXPECT_NEAR(l1, 3.3, 1e-9);       // o + L
  EXPECT_NEAR(l100, 0.33, 0.01);    // o + L/100
  EXPECT_GT(l1 / l100, 9.0);        // the paper's "10x by overlapping"
}

TEST(Model, KneeMovesLeftWithMoreMessages) {
  RooflineModel m(params());
  EXPECT_GT(m.knee_bytes(1), m.knee_bytes(100));
  // At the knee, latency and bandwidth terms balance (sharp model).
  const double b = m.knee_bytes(1);
  EXPECT_NEAR(b * params().G_us_per_byte(), 3.0, 1e-9);
}

TEST(Model, OverlapHeadroomMatchesPaperTenX) {
  // Fig 1: ~10x improvement available for small messages when L >> G*B.
  RooflineModel m(params());
  EXPECT_NEAR(m.overlap_headroom(8), 3.3 / 0.3, 0.01);
  EXPECT_LT(m.overlap_headroom(4 << 20), 1.05);  // bandwidth-bound: no gain
}

TEST(Fit, RecoversSyntheticParameters) {
  const RooflineParams truth{0.25, 2.5, 40.0};
  RooflineModel m(truth);
  std::vector<SweepPoint> pts;
  for (double b = 8; b <= (4 << 20); b *= 4) {
    for (double msync : {1.0, 10.0, 100.0, 1000.0}) {
      pts.push_back({b, msync, m.rounded_gbs(b, msync), 0});
    }
  }
  const FitResult f = fit_roofline(pts);
  EXPECT_NEAR(f.params.o_us, truth.o_us, 0.03);
  EXPECT_NEAR(f.params.L_us, truth.L_us, 0.25);
  EXPECT_NEAR(f.params.peak_gbs, truth.peak_gbs, 2.0);
  EXPECT_LT(f.rms_log_error, 0.05);
}

TEST(Fit, ToleratesNoise) {
  const RooflineParams truth{0.5, 5.0, 25.0};
  RooflineModel m(truth);
  std::vector<SweepPoint> pts;
  double wiggle = 0.95;
  for (double b = 8; b <= (1 << 20); b *= 8) {
    for (double msync : {1.0, 30.0, 1000.0}) {
      pts.push_back({b, msync, m.rounded_gbs(b, msync) * wiggle, 0});
      wiggle = (wiggle == 0.95) ? 1.05 : 0.95;
    }
  }
  const FitResult f = fit_roofline(pts);
  EXPECT_NEAR(f.params.o_us, truth.o_us, 0.15);
  EXPECT_NEAR(f.params.peak_gbs, truth.peak_gbs, 4.0);
}

TEST(Sweep, BandwidthGrowsWithMsgsPerSyncSmallMessages) {
  SweepConfig cfg;
  cfg.kind = SweepKind::kTwoSided;
  cfg.msg_sizes = {64};
  cfg.msgs_per_sync = {1, 10, 100};
  cfg.iters = 4;
  const auto pts = run_sweep(simnet::Platform::perlmutter_cpu(), cfg).value();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_LT(pts[0].measured_gbs, pts[1].measured_gbs);
  EXPECT_LT(pts[1].measured_gbs, pts[2].measured_gbs);
}

TEST(Sweep, LargeMessagesReachPlatformCeiling) {
  SweepConfig cfg;
  cfg.kind = SweepKind::kOneSidedMpi;
  cfg.msg_sizes = {4 << 20};
  cfg.msgs_per_sync = {16};
  cfg.iters = 2;
  const auto pts = run_sweep(simnet::Platform::perlmutter_cpu(), cfg).value();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_GT(pts[0].measured_gbs, 25.0);
  EXPECT_LE(pts[0].measured_gbs, 32.5);
}

TEST(Sweep, OneSidedBeatsTwoSidedAtHighConcurrencyOnPerlmutter) {
  // Fig 3a headline: one-sided MPI overtakes two-sided as msg/sync grows.
  SweepConfig two = SweepConfig{};
  two.kind = SweepKind::kTwoSided;
  two.msg_sizes = {1024};
  two.msgs_per_sync = {100};
  SweepConfig one = two;
  one.kind = SweepKind::kOneSidedMpi;
  const auto p = simnet::Platform::perlmutter_cpu();
  const double bw2 = run_sweep(p, two).value()[0].measured_gbs;
  const double bw1 = run_sweep(p, one).value()[0].measured_gbs;
  EXPECT_GT(bw1, bw2);
}

TEST(Sweep, OneSidedLosesOnSummitSpectrumMpi) {
  // Fig 3c headline: Spectrum MPI one-sided is consistently slower.
  SweepConfig two = SweepConfig{};
  two.kind = SweepKind::kTwoSided;
  two.msg_sizes = {1024};
  two.msgs_per_sync = {1, 100};
  SweepConfig one = two;
  one.kind = SweepKind::kOneSidedMpi;
  const auto p = simnet::Platform::summit_cpu();
  const auto pts2 = run_sweep(p, two).value();
  const auto pts1 = run_sweep(p, one).value();
  for (std::size_t i = 0; i < pts2.size(); ++i) {
    EXPECT_LT(pts1[i].measured_gbs, pts2[i].measured_gbs) << i;
  }
}

TEST(Sweep, CasLatencyProbeMatchesShmemCalibration) {
  EXPECT_NEAR(
      measure_cas_latency_us(simnet::Platform::perlmutter_gpu(), 2, 1, 0)
          .value(),
      0.8, 0.1);
}

TEST(Parallel, ForIndexedCoversEveryIndexOnce) {
  for (int jobs : {1, 3, 8}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h.store(0);
    parallel_for_indexed(hits.size(), jobs, [&](int worker, std::size_t i) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, jobs);
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(Parallel, SequentialPathRunsInOrderOnCallerThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_indexed(5, 1, [&](int worker, std::size_t i) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Parallel, PropagatesFirstException) {
  for (int jobs : {1, 4}) {
    EXPECT_THROW(
        parallel_for_indexed(50, jobs,
                             [&](int, std::size_t i) {
                               if (i == 7) throw std::runtime_error("kaboom");
                             }),
        std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(Parallel, ResolveJobsHonorsOverride) {
  const int saved = default_jobs();
  set_default_jobs(3);
  EXPECT_EQ(resolve_jobs(0), 3);
  EXPECT_EQ(resolve_jobs(-2), 3);
  EXPECT_EQ(resolve_jobs(7), 7);
  set_default_jobs(0);  // back to hardware concurrency
  EXPECT_GE(default_jobs(), 1);
  set_default_jobs(saved);
}

// The determinism guarantee: a parallel sweep is byte-identical to a
// one-job sweep — grid points are isolated simulations written
// to pre-assigned slots, so completion order cannot leak into the results.
TEST(Parallel, SweepJobs4BitIdenticalToJobs1) {
  SweepConfig cfg;
  cfg.kind = SweepKind::kOneSidedMpi;
  cfg.msg_sizes = {64, 4096, 262144};
  cfg.msgs_per_sync = {1, 10, 100};
  cfg.iters = 3;
  const auto plat = simnet::Platform::perlmutter_cpu();

  cfg.jobs = 1;
  const auto seq = run_sweep(plat, cfg).value();
  cfg.jobs = 4;
  const auto par = run_sweep(plat, cfg).value();

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    // Bit-level equality, not EXPECT_DOUBLE_EQ: the parallel runner must
    // reproduce the exact same virtual-time arithmetic per point.
    EXPECT_EQ(seq[i].bytes, par[i].bytes) << i;
    EXPECT_EQ(seq[i].msgs_per_sync, par[i].msgs_per_sync) << i;
    EXPECT_EQ(seq[i].measured_gbs, par[i].measured_gbs) << i;
    EXPECT_EQ(seq[i].eff_latency_us, par[i].eff_latency_us) << i;
  }
}

// Scheduler interchangeability at the sweep level: a fig01-style grid must
// be bit-identical across {heap, linear} × {jobs 1, jobs 4}. Nesting check
// for the fibers: with jobs=4 each pool worker owns an engine whose fiber
// scheduler runs on that worker's thread, under parallel_for_indexed.
TEST(Parallel, SweepBitIdenticalAcrossSchedulersAndJobs) {
  namespace rt = mrl::runtime;
  SweepConfig cfg;
  cfg.kind = SweepKind::kOneSidedMpi;
  cfg.msg_sizes = {64, 4096, 262144};
  cfg.msgs_per_sync = {1, 10, 100};
  cfg.iters = 3;
  const auto plat = simnet::Platform::perlmutter_cpu();

  const rt::SchedulerKind saved = rt::default_scheduler();
  std::vector<std::vector<SweepPoint>> results;
  for (rt::SchedulerKind sched :
       {rt::SchedulerKind::kIndexedHeap, rt::SchedulerKind::kLinearScan}) {
    rt::set_default_scheduler(sched);
    for (int jobs : {1, 4}) {
      cfg.jobs = jobs;
      results.push_back(run_sweep(plat, cfg).value());
    }
  }
  rt::set_default_scheduler(saved);

  const auto& ref = results.front();
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(ref.size(), results[v].size()) << "variant " << v;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].bytes, results[v][i].bytes) << v << "/" << i;
      EXPECT_EQ(ref[i].msgs_per_sync, results[v][i].msgs_per_sync)
          << v << "/" << i;
      EXPECT_EQ(ref[i].measured_gbs, results[v][i].measured_gbs)
          << v << "/" << i;
      EXPECT_EQ(ref[i].eff_latency_us, results[v][i].eff_latency_us)
          << v << "/" << i;
    }
  }
}

// The process-wide metrics registry only aggregates commutative quantities
// (integer sums, histogram buckets, maxima), so its CSV must come out
// byte-for-byte identical no matter which scheduler ran the sweep or in what
// order the parallel grid points published their reports.
TEST(Parallel, MetricsRegistryBytesIdenticalAcrossSchedulersAndJobs) {
  namespace rt = mrl::runtime;
  SweepConfig cfg;
  cfg.kind = SweepKind::kOneSidedMpi;
  cfg.msg_sizes = {64, 4096, 262144};
  cfg.msgs_per_sync = {1, 10, 100};
  cfg.iters = 3;
  const auto plat = simnet::Platform::perlmutter_cpu();

  const rt::SchedulerKind saved = rt::default_scheduler();
  const bool saved_metrics = rt::default_metrics();
  rt::set_default_metrics(true);
  std::vector<std::vector<std::vector<std::string>>> rows;
  std::vector<std::uint64_t> runs;
  for (rt::SchedulerKind sched :
       {rt::SchedulerKind::kIndexedHeap, rt::SchedulerKind::kLinearScan}) {
    rt::set_default_scheduler(sched);
    for (int jobs : {1, 4}) {
      rt::MetricsRegistry::instance().reset();
      cfg.jobs = jobs;
      (void)run_sweep(plat, cfg).value();
      runs.push_back(rt::MetricsRegistry::instance().runs());
      rows.push_back(rt::MetricsRegistry::instance().csv_rows());
    }
  }
  rt::set_default_scheduler(saved);
  rt::set_default_metrics(saved_metrics);
  rt::MetricsRegistry::instance().reset();

  ASSERT_EQ(rows.size(), 4u);
  EXPECT_GT(runs[0], 0u) << "sweep engines did not publish any reports";
  for (std::size_t v = 1; v < rows.size(); ++v) {
    EXPECT_EQ(runs[0], runs[v]) << "variant " << v;
    EXPECT_EQ(rows[0], rows[v]) << "variant " << v;
  }
}

TEST(Parallel, SweepParityAcrossKindsAndJobCounts) {
  const auto plat = simnet::Platform::perlmutter_gpu();
  for (SweepKind kind : {SweepKind::kTwoSided, SweepKind::kShmemPutSignal,
                         SweepKind::kAtomicCas}) {
    SweepConfig cfg;
    cfg.kind = kind;
    cfg.msg_sizes = {8, 65536};
    cfg.msgs_per_sync = {1, 100};
    cfg.iters = 2;
    cfg.jobs = 1;
    const auto seq = run_sweep(plat, cfg).value();
    for (int jobs : {2, 7}) {
      cfg.jobs = jobs;
      const auto par = run_sweep(plat, cfg).value();
      ASSERT_EQ(seq.size(), par.size());
      for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].measured_gbs, par[i].measured_gbs)
            << to_string(kind) << " jobs=" << jobs << " i=" << i;
        EXPECT_EQ(seq[i].eff_latency_us, par[i].eff_latency_us)
            << to_string(kind) << " jobs=" << jobs << " i=" << i;
      }
    }
  }
}

TEST(Parallel, CalibrateRooflineJobs4IdenticalToJobs1) {
  const auto plat = simnet::Platform::frontier_cpu();
  const RooflineParams seq =
      calibrate_roofline(plat, SweepKind::kOneSidedMpi, 1).value();
  const RooflineParams par =
      calibrate_roofline(plat, SweepKind::kOneSidedMpi, 4).value();
  EXPECT_EQ(seq.o_us, par.o_us);
  EXPECT_EQ(seq.L_us, par.L_us);
  EXPECT_EQ(seq.peak_gbs, par.peak_gbs);
}

TEST(Split, LargeMessagesGainFromSplittingOnPerlmutterGpu) {
  SplitConfig cfg;
  cfg.volumes = {1 << 20};  // 1 MiB >> the 131 KiB crossover
  cfg.ways = {1, 4};
  cfg.iters = 4;
  const auto pts =
      run_split_sweep(simnet::Platform::perlmutter_gpu(), cfg).value();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_GT(pts[1].speedup_vs_1, 2.0);  // paper: up to 2.9x
  EXPECT_LT(pts[1].speedup_vs_1, 4.0);
}

TEST(Split, TinyMessagesLoseFromSplitting) {
  SplitConfig cfg;
  cfg.volumes = {4096};
  cfg.ways = {1, 4};
  cfg.iters = 4;
  const auto pts =
      run_split_sweep(simnet::Platform::perlmutter_gpu(), cfg).value();
  EXPECT_LT(pts[1].speedup_vs_1, 1.0);
}

TEST(Split, IndivisibleVolumeIsInvalidArgument) {
  SplitConfig cfg;
  cfg.ways = {1, 4};
  for (std::uint64_t volume : {2, 6}) {
    cfg.volumes = {1024, volume};
    const auto pts = run_split_sweep(simnet::Platform::perlmutter_gpu(), cfg);
    ASSERT_FALSE(pts.is_ok()) << volume;
    EXPECT_EQ(pts.status().code(), ErrorCode::kInvalidArgument) << volume;
  }
}

// Exact Fig 10 split and Fig 4 CAS-probe outputs: a change to the measured
// loop that moves any simulated number fails here.
struct SplitPin {
  std::uint64_t volume_bytes;
  int ways;
  double time_us;
  double gbs;
  double speedup_vs_1;
};

void expect_split_pins(const std::vector<SplitPoint>& pts,
                       const std::vector<SplitPin>& want) {
  ASSERT_EQ(pts.size(), want.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].volume_bytes, want[i].volume_bytes) << i;
    EXPECT_EQ(pts[i].ways, want[i].ways) << i;
    EXPECT_EQ(pts[i].time_us, want[i].time_us) << i;
    EXPECT_EQ(pts[i].gbs, want[i].gbs) << i;
    EXPECT_EQ(pts[i].speedup_vs_1, want[i].speedup_vs_1) << i;
  }
}

TEST(PinnedOutputs, SplitSweepPerlmutterGpu) {
  SplitConfig cfg;
  cfg.volumes = {4096, 1 << 20};
  cfg.ways = {1, 2, 4, 8};
  cfg.iters = 8;
  expect_split_pins(
      run_split_sweep(simnet::Platform::perlmutter_gpu(), cfg).value(),
      {
          {4096, 1, 4.1641599999999999, 0.98363175286252214, 1},
          {4096, 2, 4.5822399999999988, 0.89388595970529716,
           0.90876078075351818},
          {4096, 4, 5.5412800000000004, 0.73917939537435395,
           0.75147980250050517},
          {4096, 8, 7.5208000000000004, 0.5446229124561216,
           0.55368577810871178},
          {1 << 20, 1, 45.943359999999998, 22.823232780536731, 1},
          {1 << 20, 2, 25.471839999999993, 41.16608772668171,
           1.8036922342477031},
          {1 << 20, 4, 15.986080000000001, 65.593065967391624,
           2.8739603455005853},
          {1 << 20, 8, 15.9864, 65.591752990041542, 2.8739028173947854},
      });
}

TEST(PinnedOutputs, SplitSweepSummitGpu) {
  SplitConfig cfg;
  cfg.volumes = {1 << 20};
  cfg.ways = {1, 4};
  cfg.iters = 6;
  expect_split_pins(
      run_split_sweep(simnet::Platform::summit_gpu(), cfg).value(),
      {
          {1 << 20, 1, 46.943360000000006, 22.337046176498653, 1},
          {1 << 20, 4, 28.972160000000013, 36.192537939870533,
           1.6202920320749292},
      });
}

TEST(PinnedOutputs, Fig04CasLatencies) {
  EXPECT_EQ(
      measure_cas_latency_us(simnet::Platform::perlmutter_gpu(), 4, 1, 0)
          .value(),
      0.80063999999999913);
  EXPECT_EQ(
      measure_cas_latency_us(simnet::Platform::summit_gpu(), 6, 1, 0).value(),
      1.0006400000000037);
  EXPECT_EQ(
      measure_cas_latency_us(simnet::Platform::summit_gpu(), 6, 4, 0).value(),
      1.6006399999999985);
}

TEST(Report, FigureRendersDotsAndCurves) {
  RooflineFigure fig("test figure", params());
  fig.add_model_curves({1, 100});
  fig.add_sharp_curve();
  fig.add_dot({"stencil", 65536, 4, 10.0});
  const std::string out = fig.render();
  EXPECT_NE(out.find("test figure"), std::string::npos);
  EXPECT_NE(out.find("stencil"), std::string::npos);
  EXPECT_NE(out.find("% of bound"), std::string::npos);
  const auto rows = fig.csv_rows();
  EXPECT_GT(rows.size(), 10u);
}

TEST(Plot, RendersLogLogScatter) {
  AsciiPlot p("t", "x", "y");
  p.add_series({"s", '*', {1, 10, 100}, {1, 100, 10000}});
  const std::string out = p.render();
  EXPECT_NE(out.find("[*] s"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

// --- fault-injected sweeps ------------------------------------------------

TEST(FaultSweep, ZeroIntensitySpecIsBitIdenticalToPristine) {
  SweepConfig cfg;
  cfg.kind = SweepKind::kTwoSided;
  cfg.msg_sizes = {64, 4096, 262144};
  cfg.msgs_per_sync = {1, 100};
  cfg.iters = 2;
  const auto pristine =
      run_sweep(simnet::Platform::perlmutter_cpu(), cfg).value();
  simnet::Platform plat = simnet::Platform::perlmutter_cpu();
  plat.set_faults(simnet::FaultSpec::at_intensity(0.0, 123));
  const auto zero = run_sweep(plat, cfg).value();
  ASSERT_EQ(pristine.size(), zero.size());
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    EXPECT_EQ(pristine[i].measured_gbs, zero[i].measured_gbs) << i;
    EXPECT_EQ(pristine[i].eff_latency_us, zero[i].eff_latency_us) << i;
  }
}

TEST(FaultSweep, Jobs4BitIdenticalToJobs1UnderFaults) {
  // The fault layer keys every draw by (seed, link, ordinal), and the engine
  // serializes fabric access in virtual-time order — so even a degraded
  // sweep must be byte-reproducible across worker counts.
  simnet::Platform plat = simnet::Platform::perlmutter_cpu();
  plat.set_faults(simnet::FaultSpec::at_intensity(0.6, 2026));
  SweepConfig cfg;
  cfg.kind = SweepKind::kOneSidedMpi;
  cfg.msg_sizes = {64, 4096, 262144};
  cfg.msgs_per_sync = {1, 10, 100};
  cfg.iters = 3;
  cfg.jobs = 1;
  const auto seq = run_sweep(plat, cfg).value();
  cfg.jobs = 4;
  const auto par = run_sweep(plat, cfg).value();
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].measured_gbs, par[i].measured_gbs) << i;
    EXPECT_EQ(seq[i].eff_latency_us, par[i].eff_latency_us) << i;
  }
}

TEST(FaultSweep, IntensityInflatesEffectiveLatency) {
  SweepConfig cfg;
  cfg.kind = SweepKind::kTwoSided;
  cfg.msg_sizes = {4096};
  cfg.msgs_per_sync = {10};
  cfg.iters = 2;
  const auto base = run_sweep(simnet::Platform::perlmutter_cpu(), cfg).value();
  simnet::Platform plat = simnet::Platform::perlmutter_cpu();
  plat.set_faults(simnet::FaultSpec::at_intensity(0.8, 31337));
  const auto degraded = run_sweep(plat, cfg).value();
  ASSERT_EQ(base.size(), 1u);
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_GT(degraded[0].eff_latency_us, base[0].eff_latency_us);
  EXPECT_LT(degraded[0].measured_gbs, base[0].measured_gbs);
}

}  // namespace
}  // namespace mrl::core
