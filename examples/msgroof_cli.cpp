// msgroof_cli — command-line driver over the whole library: list platforms,
// run sweeps, solve workloads, and export Chrome traces, without writing C++.
//
//   msgroof_cli platforms
//   msgroof_cli sweep   <platform> <runtime> [--csv out.csv]
//   msgroof_cli stencil <platform> <ranks> [n] [iters]
//   msgroof_cli sptrsv  <platform> <ranks> [n]
//   msgroof_cli hashtable <platform> <ranks> [inserts]
//   msgroof_cli trace   <platform> <ranks> <out.json>   (stencil run trace)
//
// Platforms: perlmutter-cpu frontier-cpu summit-cpu
//            perlmutter-gpu summit-gpu frontier-gpu
// Runtimes:  two-sided one-sided shmem cas
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/fit.hpp"
#include "mpi/comm.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "simnet/platform.hpp"
#include "simnet/trace_export.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workloads/hashtable/hashtable.hpp"
#include "workloads/sptrsv/sptrsv.hpp"
#include "workloads/stencil/stencil.hpp"

namespace {

using namespace mrl;

/// name, then the positional count range after it.
struct Command {
  const char* name;
  std::size_t min_args;
  std::size_t max_args;
};
constexpr Command kCommands[] = {{"platforms", 0, 0}, {"sweep", 2, 2},
                                 {"stencil", 2, 4},   {"sptrsv", 2, 3},
                                 {"hashtable", 2, 3}, {"trace", 3, 3}};

std::string epilog() {
  return "commands:\n"
         "  platforms\n"
         "  sweep <platform> <runtime>        (takes --csv PATH and --jobs N)\n"
         "  stencil <platform> <ranks> [n] [iters]\n"
         "  sptrsv <platform> <ranks> [n]\n"
         "  hashtable <platform> <ranks> [inserts]\n"
         "  trace <platform> <ranks> <out.json>\n"
         "platforms: " +
         cli::platform_names() + "\nruntimes: " + cli::runtime_names() +
         "\nWith --metrics, stencil writes its full per-rank/link report with "
         "fiber stack\nhigh-water marks; other commands write the "
         "process-wide aggregate.\n";
}

/// Reports a failed `st` on stderr; true when it failed.
bool failed(const Status& st) {
  if (st.is_ok()) return false;
  std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
  return true;
}

int cmd_platforms() {
  TextTable t({"name", "max ranks", "kind", "pair peak (0..n-1)",
               "hw RTT (0..n-1)"});
  for (const simnet::Platform& p : simnet::Platform::all()) {
    const int n = p.max_ranks();
    t.add_row({p.name(), std::to_string(n), p.is_gpu() ? "GPU" : "CPU",
               format_gbs(p.pair_peak_gbs(0, n - 1, n)),
               format_time_us(p.hw_rtt_us(0, n - 1, n))});
  }
  std::printf("%s", t.render("registered platforms").c_str());
  return 0;
}

int cmd_sweep(const simnet::Platform& plat, core::SweepKind kind,
              const std::string& csv_path, int jobs) {
  core::SweepConfig cfg = core::SweepConfig::defaults(kind);
  cfg.iters = 4;
  cfg.jobs = jobs;
  const auto sweep = core::run_sweep(plat, cfg);
  if (failed(sweep.status())) return 1;
  const auto& pts = sweep.value();
  const auto fit = core::fit_roofline(pts);

  core::RooflineFigure fig(plat.name() + " / " + core::to_string(kind),
                           fit.params);
  fig.add_model_curves({1, 100, 10000});
  fig.add_points("measured", '*', pts);
  std::printf("%s", fig.render().c_str());
  if (!csv_path.empty()) {
    if (failed(write_csv_file(csv_path, fig.csv_rows()))) return 1;
    std::printf("[csv] %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_stencil(const simnet::Platform& plat, int nranks, int n, int iters) {
  workloads::stencil::Config cfg;
  cfg.n = n;
  cfg.iters = iters;
  const auto r =
      plat.is_gpu() ? workloads::stencil::run_shmem_gpu(plat, nranks, cfg)
                    : workloads::stencil::run_two_sided(plat, nranks, cfg);
  if (failed(r.status)) return 1;
  std::printf("stencil %dx%d, %d ranks on %s: %s (verified: %s, comm %s)\n",
              cfg.n, cfg.n, nranks, plat.name().c_str(),
              format_time_us(r.time_us).c_str(),
              r.max_abs_err == 0 ? "bitwise" : "FAILED",
              format_gbs(r.msgs.sustained_gbs).c_str());
  if (runtime::default_metrics()) {
    // --metrics writes the full per-rank/per-link report instead of the
    // aggregate, with the stack-HWM section appended (stack depth depends
    // on the build, not the simulation, so it stays out of the comparable
    // sections; see DESIGN §9).
    auto rows = r.metrics.csv_rows();
    const auto stack = r.metrics.stack_csv_rows();
    rows.insert(rows.end(), stack.begin(), stack.end());
    cli::replace_metrics_aggregate(std::move(rows));
    if (!r.metrics.stack_hwm_bytes.empty()) {
      std::size_t peak = 0;
      for (std::size_t h : r.metrics.stack_hwm_bytes) {
        peak = std::max(peak, h);
      }
      std::printf("[metrics] fiber stack high-water: max %zu of %zu usable "
                  "bytes across %zu fibers\n",
                  peak, r.metrics.stack_usable_bytes,
                  r.metrics.stack_hwm_bytes.size());
    }
  }
  return r.max_abs_err == 0 ? 0 : 1;
}

int cmd_sptrsv(const simnet::Platform& plat, int ranks, int n) {
  workloads::sptrsv::GenConfig g;
  g.n = n;
  const auto L = workloads::sptrsv::SupernodalMatrix::generate(g);
  workloads::sptrsv::Config cfg;
  const auto r =
      plat.is_gpu() ? workloads::sptrsv::run_shmem_gpu(plat, ranks, L, cfg)
                    : workloads::sptrsv::run_two_sided(plat, ranks, L, cfg);
  if (failed(r.status)) return 1;
  std::printf("sptrsv n=%d (%d supernodes, %llu nnz), %d ranks on %s: %s "
              "(rel err %.2e)\n",
              L.n(), L.num_supernodes(),
              static_cast<unsigned long long>(L.nnz()), ranks,
              plat.name().c_str(), format_time_us(r.time_us).c_str(),
              r.rel_err);
  return r.rel_err < 1e-9 ? 0 : 1;
}

int cmd_hashtable(const simnet::Platform& plat, int ranks,
                  std::uint64_t inserts) {
  workloads::hashtable::Config cfg;
  cfg.total_inserts = inserts;
  const auto r =
      plat.is_gpu() ? workloads::hashtable::run_shmem_gpu(plat, ranks, cfg)
                    : workloads::hashtable::run_one_sided(plat, ranks, cfg);
  if (failed(r.status)) return 1;
  std::printf("hashtable %llu inserts, %d ranks on %s: %s (%s updates/s, "
              "%llu collisions, verified: %s)\n",
              static_cast<unsigned long long>(r.inserted), ranks,
              plat.name().c_str(), format_time_us(r.time_us).c_str(),
              format_count(static_cast<std::uint64_t>(r.updates_per_sec))
                  .c_str(),
              static_cast<unsigned long long>(r.collisions),
              r.verify_ok ? "yes" : "NO");
  return r.verify_ok ? 0 : 1;
}

int cmd_trace(const simnet::Platform& plat, int ranks, const std::string& out) {
  workloads::stencil::Config cfg;
  cfg.n = 256;
  cfg.iters = 3;
  runtime::EngineOptions opt;
  opt.trace = true;
  runtime::Engine eng(plat, ranks, opt);
  const auto res = mpi::World::run(eng, [&](mpi::Comm& c) {
    // px = py = 0: the near-square process grid.
    workloads::stencil::LocalBlock blk(
        cfg, workloads::stencil::make_decomp(cfg.n, c.size(), c.rank(), 0, 0));
    // A few quick rounds of real halo traffic for the trace.
    std::vector<mpi::Request> reqs;  // reused every iteration
    for (int it = 0; it < cfg.iters; ++it) {
      blk.pack_edges();
      workloads::stencil::exchange_two_sided(c, blk, reqs);
      blk.sweep();
    }
  });
  if (failed(res.status)) return 1;
  if (!simnet::export_trace_chrome(eng.trace(), out)) return 1;
  std::printf("wrote %zu message slices to %s (open in chrome://tracing)\n",
              eng.trace().records().size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double fault_intensity = 0;
  std::uint64_t fault_seed = 0x5EEDF007ULL;
  int nodes = 1;
  std::string csv_path;
  int jobs = 0;  // 0 = hardware concurrency; results identical at any value

  util::FlagSet fs("<command> [args...]", epilog());
  fs.add(util::real_flag(
      "--faults", "I",
      "inject deterministic fabric faults at intensity I (0 = pristine, 1 = "
      "heavily degraded)",
      0, [&fault_intensity](double v) { fault_intensity = v; }));
  fs.add(cli::fault_seed_flag(&fault_seed));
  fs.add(util::real_flag(
      "--watchdog-us", "N",
      "virtual-time progress limit per run in us (default 1e9; 0 disables); "
      "a livelocked run fails with TIMEOUT",
      0, &runtime::set_default_watchdog_virtual_us));
  fs.add(util::int_flag(
      "--nodes",
      "scale CPU platforms to N nodes (default 1; N=80 gives a 10240-rank "
      "perlmutter-cpu)",
      1, [&nodes](int n) { nodes = n; }));
  fs.add(cli::stack_bytes_flag());
  cli::add_observer_flags(fs, /*link_summary=*/false);
  fs.add(util::path_flag("--csv", "sweep only: write the figure's CSV to PATH",
                         [&csv_path](const std::string& p) { csv_path = p; }));
  fs.add(cli::jobs_flag(&jobs));
  const std::vector<std::string> pos = fs.parse(argc, argv);

  if (pos.empty()) fs.fail("missing command");
  const std::string& cmd = pos[0];
  const Command* c = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&cmd](const Command& k) { return cmd == k.name; });
  if (c == std::end(kCommands)) fs.fail("unknown command '" + cmd + "'");
  const std::size_t nargs = pos.size() - 1;
  if (nargs < c->min_args) fs.fail(cmd + ": missing arguments");
  if (nargs > c->max_args) {
    fs.fail(cmd + ": unexpected argument '" + pos[c->max_args + 1] + "'");
  }
  if (cmd != "sweep" && (!csv_path.empty() || jobs != 0)) {
    fs.fail("--csv and --jobs only apply to sweep");
  }
  if (cmd == "platforms") return cmd_platforms();

  Result<simnet::Platform> found = cli::platform_by_name(pos[1], nodes);
  if (!found.is_ok()) fs.fail(found.status().message());
  simnet::Platform plat = std::move(found).value();
  if (fault_intensity > 0) {
    plat.set_faults(
        simnet::FaultSpec::at_intensity(fault_intensity, fault_seed));
  }
  if (cmd == "sweep") {
    const Result<core::SweepKind> kind = cli::sweep_kind_by_name(pos[2]);
    if (!kind.is_ok()) fs.fail(kind.status().message());
    return cmd_sweep(plat, kind.value(), csv_path, jobs);
  }
  // Positional integer i (or `fallback` when omitted) in [min, max]; the
  // INT_MAX default keeps int-typed counts from narrowing.
  auto count = [&](std::size_t i, const char* fallback, long long min,
                   const char* what, long long max = INT_MAX) {
    std::string error;
    const auto v = parse_min_int(i < pos.size() ? pos[i] : fallback, min,
                                 what, &error, max);
    if (!v) fs.fail(error);
    return *v;
  };
  const int ranks = static_cast<int>(count(2, "", 1, "rank count"));
  if (cmd == "stencil") {
    return cmd_stencil(plat, ranks,
                       static_cast<int>(count(3, "512", 2, "grid size")),
                       static_cast<int>(count(4, "5", 1, "iteration count")));
  }
  if (cmd == "sptrsv") {
    return cmd_sptrsv(plat, ranks,
                      static_cast<int>(count(3, "6000", 1, "matrix size")));
  }
  if (cmd == "hashtable") {
    return cmd_hashtable(
        plat, ranks,
        static_cast<std::uint64_t>(
            count(3, "20000", 1, "insert count", LLONG_MAX)));
  }
  return cmd_trace(plat, ranks, pos[3]);
}
