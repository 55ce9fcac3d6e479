// Ablations over the design choices called out in DESIGN.md:
//   1. cut-through vs store-and-forward link costing,
//   2. link channel count (what creates the Fig 10 split win),
//   3. Listing-1 poll cost (what stops one-sided SpTRSV scaling),
//   4. put-with-signal (1 fused op) vs the 4-op one-sided MPI message,
//   7. scheduler core: indexed min-heap vs legacy linear scan.
// (Ablations 5 and 6 are gone; the numbering is kept so EXPERIMENTS.md
// stays aligned.)
#include <chrono>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "simnet/platform.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workloads/sptrsv/sptrsv.hpp"

int main(int argc, char** argv) {
  using namespace mrl;
  const auto args = bench::Args::parse(argc, argv);
  bench::banner("abl_design — design-choice ablations",
                "DESIGN.md ablation index (not a paper figure)");

  // 1. Cut-through vs store-and-forward on the Summit GPU dumbbell (the
  //    longest routes: 3 hops across sockets).
  {
    TextTable t({"route mode", "cross-island 1 MiB put+quiet"});
    for (auto mode : {simnet::RouteMode::kCutThrough,
                      simnet::RouteMode::kStoreForward}) {
      simnet::Platform plat = simnet::Platform::summit_gpu();
      plat.set_route_mode(mode);
      core::SweepConfig cfg;
      cfg.kind = core::SweepKind::kShmemPutSignal;
      cfg.msg_sizes = {1 << 20};
      cfg.msgs_per_sync = {1};
      cfg.nranks = 4;
      cfg.sender = 0;
      cfg.receiver = 3;  // crosses the X-Bus
      const auto pts = bench::unwrap(core::run_sweep(plat, cfg));
      t.add_row({mode == simnet::RouteMode::kCutThrough ? "cut-through"
                                                        : "store-and-forward",
                 format_time_us(pts[0].eff_latency_us)});
    }
    std::printf("%s\n", t.render("ablation 1: link costing mode").c_str());
  }

  // 2. Channel count: the 4-way split speedup tracks the number of link
  //    lanes — Perlmutter NVLink3 pairs have 4, Summit NVLink2 pairs have 2.
  {
    TextTable t({"platform (lanes per pair)", "4-way split speedup (1 MiB)"});
    core::SplitConfig scfg;
    scfg.volumes = {1 << 20};
    scfg.ways = {1, 4};
    scfg.iters = args.full ? 16 : 6;
    {
      const auto pts = bench::unwrap(
          core::run_split_sweep(simnet::Platform::perlmutter_gpu(), scfg));
      t.add_row({"Perlmutter GPU (4 x 25 GB/s)",
                 format_double(pts[1].speedup_vs_1, 2) + "x"});
    }
    {
      const auto pts = bench::unwrap(
          core::run_split_sweep(simnet::Platform::summit_gpu(), scfg));
      t.add_row({"Summit GPU (2 x 25 GB/s)",
                 format_double(pts[1].speedup_vs_1, 2) + "x"});
    }
    std::printf("%s\n", t.render("ablation 2: channelized links").c_str());
  }

  // 3. Poll cost of the Listing-1 acknowledgment scan.
  {
    workloads::sptrsv::GenConfig g;
    g.n = args.full ? 40000 : 8000;
    const auto L = workloads::sptrsv::SupernodalMatrix::generate(g);
    TextTable t({"poll cost / element", "one-sided SpTRSV @ 16 ranks"});
    for (double poll : {0.0, 0.003, 0.03}) {
      workloads::sptrsv::Config cfg;
      cfg.verify = false;
      cfg.poll_cost_us = poll;
      const auto r = workloads::sptrsv::run_one_sided(
          simnet::Platform::perlmutter_cpu(), 16, L, cfg);
      t.add_row({format_time_us(poll), format_time_us(r.time_us)});
    }
    std::printf("%s\n",
                t.render("ablation 3: receiver-ack scan cost").c_str());
  }

  // 4. Put-with-signal vs 4-op one-sided MPI for a SpTRSV-sized message.
  {
    TextTable t({"protocol", "ops/msg", "time per 800 B notified message"});
    const auto plat = simnet::Platform::perlmutter_cpu();
    {
      core::SweepConfig cfg;
      cfg.kind = core::SweepKind::kShmemPutSignal;
      cfg.msg_sizes = {800};
      cfg.msgs_per_sync = {1};
      const auto pts = bench::unwrap(core::run_sweep(plat, cfg));
      t.add_row({"put-with-signal (fused)", "1",
                 format_time_us(pts[0].eff_latency_us)});
    }
    {
      // 4-op: measured through the one-sided sweep plus the extra signal
      // round (put+flush+put+flush) — approximate with two back-to-back
      // one-sided syncs of 800 B and 8 B.
      core::SweepConfig cfg;
      cfg.kind = core::SweepKind::kOneSidedMpi;
      cfg.msg_sizes = {800};
      cfg.msgs_per_sync = {1};
      const auto data_pts = bench::unwrap(core::run_sweep(plat, cfg));
      cfg.msg_sizes = {8};
      const auto sig_pts = bench::unwrap(core::run_sweep(plat, cfg));
      t.add_row({"MPI put+flush+signal+flush", "4",
                 format_time_us(data_pts[0].eff_latency_us +
                                sig_pts[0].eff_latency_us)});
    }
    std::printf(
        "%s\n",
        t.render("ablation 4: hardware put-with-signal support "
                 "(the paper's 'intuitively inferred' win)")
            .c_str());
  }

  // 7. Scheduler core: indexed min-heap vs the legacy linear scan. Every
  //    dispatch grants the min-(wake, rank id) ready rank; the linear scan
  //    pays O(P) per grant (plus an O(P) all-ranks pass per wake check)
  //    while the indexed heap pays O(log P) with an O(1) blocked-rank
  //    index — the difference between quadratic and near-linear total work
  //    at paper-scale worlds. Both produce bit-identical schedules (the
  //    heap's tie-break is exactly the scan's lowest-id rule), so this is
  //    pure dispatch cost. 4096 ranks is the fig05 large-world point.
  {
    using clock = std::chrono::steady_clock;
    const int nranks = 4096;
    const int ops_per_rank = args.full ? 32 : 8;
    const auto plat = simnet::Platform::perlmutter_cpu(32);  // 4096 rank slots
    const auto body = [ops_per_rank](runtime::Rank& r) {
      for (int k = 0; k < ops_per_rank; ++k) {
        r.advance(0.5);
        r.engine().perform(r, [] {});
      }
    };
    const double total_ops = static_cast<double>(nranks) * ops_per_rank;

    auto time_scheduler = [&](runtime::SchedulerKind sched) {
      runtime::EngineOptions opt;
      opt.scheduler = sched;
      runtime::Engine eng(plat, nranks, opt);
      MRL_CHECK(eng.run(body).ok());  // warm-up: stacks + page faults
      const auto t0 = clock::now();
      const auto res = eng.run(body);
      MRL_CHECK(res.ok());
      const auto t1 = clock::now();
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };

    const double linear_ms =
        time_scheduler(runtime::SchedulerKind::kLinearScan);
    const double heap_ms = time_scheduler(runtime::SchedulerKind::kIndexedHeap);
    const double speedup = heap_ms > 0 ? linear_ms / heap_ms : 0.0;

    TextTable t({"scheduler", "wall-clock", "per op"});
    t.add_row({"linear scan (O(P) grant)", format_double(linear_ms, 1) + " ms",
               format_time_us(1000.0 * linear_ms / total_ops)});
    t.add_row({"indexed heap (O(log P))", format_double(heap_ms, 1) + " ms",
               format_time_us(1000.0 * heap_ms / total_ops)});
    std::printf("%s", t.render("ablation 7: scheduler core dispatch cost "
                               "(" + std::to_string(nranks) + " ranks x " +
                               std::to_string(ops_per_rank) + " ops)")
                          .c_str());
    std::printf("  -> heap speedup: %.2fx\n\n", speedup);
    bench::dump_csv(
        "abl_scheduler_dispatch",
        {{"scheduler", "wall_ms", "us_per_op", "speedup_vs_linear"},
         {"linear", format_double(linear_ms, 3),
          format_double(1000.0 * linear_ms / total_ops, 4),
          format_double(1.0, 2)},
         {"heap", format_double(heap_ms, 3),
          format_double(1000.0 * heap_ms / total_ops, 4),
          format_double(speedup, 2)}});
  }
  return 0;
}
