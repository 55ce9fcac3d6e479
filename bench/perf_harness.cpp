// Perf harness: the scale sections perfbench does not run, each measured in
// its own child process with every observer off, reported as
// BENCH_engine.json (DESIGN.md §10).
//
// Sections (fixed shapes; the point is run-to-run comparability):
//   fig05_stencil_4096  one-sided stencil, 4096 ranks (32 Perlmutter nodes)
//   ext_fault_sweep     degraded-network sweep, 3 flavors x 5 intensities
//   jobs_scaling        the parallel sweep runner: a 768-point one-sided grid
//                       at --jobs 1 and --jobs 4; also reports the speedup
//   stencil_1m          one-sided stencil, 1,000,000 ranks on 16 KiB pooled
//                       stacks (DESIGN.md §12); also reports ranks/sec
// Positional arguments pick sections by name (default: all four). perfbench
// runs the rest on every change: roofline_sweep (the Fig 1/3/4 grids),
// stencil_scale (the 100k-rank stencil) and embedding_serving.
//
// The parent runs no simulation. It forks one child per section and takes
// the child's peak RSS from wait4()'s ru_maxrss, so a section's RSS is its
// own whichever sections ran before it. The child times the section with
// steady_clock and counts the simulated messages from what the runners
// return: the stencil's data messages, and for sweeps each grid point's
// messages per window times its windows (core/sweep.cpp).
//
// With --baseline FILE the harness compares each section's msgs_per_sec and
// rss_mb against the committed baseline and exits 1 on a regression beyond
// --tolerance / --rss-tolerance (default 25% each). It also checks two
// absolute floors: stencil_1m must simulate more than 1000 ranks/s, and on
// hosts with at least 4 hardware threads jobs_scaling must speed up by more
// than 1.5x. Absolute throughput and RSS are machine-dependent, so CI treats
// that gate as soft (artifact + report); the hard gates remain the
// bit-identity tests. Wall-clock checks live here rather than in ctest,
// where concurrently running suites (ctest -j) skew them.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "simnet/fault.hpp"
#include "simnet/platform.hpp"
#include "util/flags.hpp"
#include "workloads/stencil/stencil.hpp"

namespace {

using namespace mrl;

/// What a section's child measures and hands back through a pipe.
struct Measured {
  std::uint64_t msgs = 0;  ///< simulated messages
  double wall_s = 0;
  double speedup = 0;      ///< jobs_scaling: wall(jobs 1) / wall(jobs 4)
};

struct Section {
  const char* name;
  std::uint64_t ranks;  ///< simulated ranks; >0 adds ranks_per_sec
  Measured (*run)();    ///< fills msgs (and speedup); the caller times it
};

struct SectionResult {
  std::string name;
  Measured m;
  double rss_mb = 0;        ///< the child's peak RSS
  std::uint64_t ranks = 0;

  [[nodiscard]] double msgs_per_sec() const {
    return m.wall_s > 0 ? static_cast<double>(m.msgs) / m.wall_s : 0;
  }
  [[nodiscard]] double ranks_per_sec() const {
    return m.wall_s > 0 ? static_cast<double>(ranks) / m.wall_s : 0;
  }
};

/// Absolute floors (see the header comment). Generous against the observed
/// rates, so only a scan/wave-class regression trips them.
constexpr double kStencil1mRanksPerSecFloor = 1000.0;
constexpr double kJobsScalingSpeedupFloor = 1.5;
constexpr unsigned kJobsScalingMinHardwareThreads = 4;

void check_ok(const Status& st, const char* what) {
  if (!st.is_ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, st.to_string().c_str());
    std::exit(1);
  }
}

/// Messages run_sweep simulates for `cfg`: every grid point runs
/// clamp(20000 / m, 2, max(2, iters)) windows of m messages.
std::uint64_t sweep_msgs(const core::SweepConfig& cfg) {
  const auto iters =
      std::max<std::uint64_t>(2, static_cast<std::uint64_t>(cfg.iters));
  std::uint64_t per_size = 0;
  for (const std::uint64_t m : cfg.msgs_per_sync) {
    per_size += m * std::clamp<std::uint64_t>(
                        20000 / std::max<std::uint64_t>(1, m), 2, iters);
  }
  return per_size * cfg.msg_sizes.size();
}

/// One-sided stencil on a 1024^2 grid; returns its data messages.
std::uint64_t stencil_msgs(const simnet::Platform& plat, int nranks,
                           int iters) {
  workloads::stencil::Config cfg;
  cfg.n = 1024;
  cfg.iters = iters;
  cfg.verify = false;
  const auto r = workloads::stencil::run_one_sided(plat, nranks, cfg);
  check_ok(r.status, "stencil");
  return r.msgs.num_msgs;
}

Measured stencil_4096() {
  return {stencil_msgs(simnet::Platform::perlmutter_cpu(32), 4096, 2)};
}

Measured fault_sweep() {
  struct Flavor {
    core::SweepKind kind;
    simnet::Platform (*platform)();
  };
  const Flavor flavors[] = {
      {core::SweepKind::kTwoSided,
       +[] { return simnet::Platform::perlmutter_cpu(); }},
      {core::SweepKind::kOneSidedMpi,
       +[] { return simnet::Platform::perlmutter_cpu(); }},
      {core::SweepKind::kShmemPutSignal,
       +[] { return simnet::Platform::perlmutter_gpu(); }},
  };
  Measured out;
  for (const auto& fl : flavors) {
    for (const double intensity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      simnet::Platform plat = fl.platform();
      plat.set_faults(
          simnet::FaultSpec::at_intensity(intensity, 0x5EEDF007ULL));
      core::SweepConfig cfg;
      cfg.kind = fl.kind;
      cfg.msg_sizes = {64, 4096, 262144, 4194304};
      cfg.msgs_per_sync = {1, 16, 256};
      cfg.iters = 3;
      cfg.jobs = 1;
      const auto pts = core::run_sweep(plat, cfg);
      check_ok(pts.is_ok() ? Status::ok() : pts.status(), "fault sweep");
      out.msgs += sweep_msgs(cfg);
    }
  }
  return out;
}

Measured jobs_scaling() {
  // A grid big enough that a --jobs 1 pass takes over a second, so worker
  // start-up and scheduling noise are small against it: run_sweep caps a
  // point at ~20 000 messages, so the grid grows in points (16 sizes x 48
  // windows), every one at the cap (m >= 313 at 64 iterations). Each job
  // count still takes the best of three passes.
  const auto plat = simnet::Platform::perlmutter_cpu();
  core::SweepConfig cfg;
  cfg.kind = core::SweepKind::kOneSidedMpi;
  for (std::uint64_t b = 8; b <= 262144; b *= 2) cfg.msg_sizes.push_back(b);
  for (std::uint64_t m = 500; m <= 10000; m += 200) {
    cfg.msgs_per_sync.push_back(m);
  }
  cfg.iters = 64;
  double best_s[2] = {0, 0};
  Measured out;
  for (int k = 0; k < 2; ++k) {
    cfg.jobs = k == 0 ? 1 : 4;
    for (int pass = 0; pass < 3; ++pass) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto pts = core::run_sweep(plat, cfg);
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      check_ok(pts.is_ok() ? Status::ok() : pts.status(), "jobs sweep");
      best_s[k] = pass == 0 ? s : std::min(best_s[k], s);
      out.msgs += sweep_msgs(cfg);
    }
  }
  out.speedup = best_s[1] > 0 ? best_s[0] / best_s[1] : 0;
  std::printf("[perf] %-20s jobs=1 %.3f s, jobs=4 %.3f s: %.2fx speedup "
              "(%u hardware threads)\n",
              "jobs_scaling", best_s[0], best_s[1], out.speedup,
              std::thread::hardware_concurrency());
  return out;
}

Measured stencil_1m() {
  // One million ranks through the full one-sided stencil path. Feasible
  // because of (DESIGN.md §12) pooled 16 KiB fiber stacks (the stencil's
  // stack high-water mark is ~4.7 KiB, so the 4-page floor leaves >3x
  // headroom), gated waits, the SoA rank hot fields and structural routing.
  // One iteration keeps the section a smoke rather than a soak.
  runtime::set_default_fiber_stack_bytes(16 * 1024);
  return {stencil_msgs(simnet::Platform::perlmutter_cpu(8000), 1000000, 1)};
}

constexpr Section kSections[] = {
    {"fig05_stencil_4096", 0, stencil_4096},
    {"ext_fault_sweep", 0, fault_sweep},
    {"jobs_scaling", 0, jobs_scaling},
    {"stencil_1m", 1000000, stencil_1m},
};

[[noreturn]] void die(const char* what) {
  std::perror(what);
  std::exit(1);
}

/// Runs `s` in a forked child and returns what it measured plus its peak
/// RSS. Exits 1 if the child fails.
SectionResult run_isolated(const Section& s) {
  std::fflush(stdout);  // else the child inherits and repeats buffered text
  int fds[2];
  if (::pipe(fds) != 0) die("pipe");
  const pid_t pid = ::fork();
  if (pid < 0) die("fork");
  if (pid == 0) {
    ::close(fds[0]);
    const auto t0 = std::chrono::steady_clock::now();
    Measured m = s.run();
    m.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    std::fflush(stdout);
    const bool sent =
        ::write(fds[1], &m, sizeof m) == static_cast<ssize_t>(sizeof m);
    std::_Exit(sent ? 0 : 1);  // the measurement is done: skip teardown
  }
  ::close(fds[1]);
  int status = 0;
  rusage ru{};
  if (::wait4(pid, &status, 0, &ru) != pid) die("wait4");
  // The child's one small write is already buffered in the pipe.
  SectionResult r;
  const bool got =
      ::read(fds[0], &r.m, sizeof r.m) == static_cast<ssize_t>(sizeof r.m);
  ::close(fds[0]);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "FATAL: section %s failed (wait status %d)\n",
                 s.name, status);
    std::exit(1);
  }
  r.name = s.name;
  r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  r.ranks = s.ranks;
  std::printf("[perf] %-20s %12llu msgs  %8.3f s  %12.0f msgs/s  rss %.1f MB",
              r.name.c_str(), static_cast<unsigned long long>(r.m.msgs),
              r.m.wall_s, r.msgs_per_sec(), r.rss_mb);
  if (r.ranks > 0) std::printf("  %.0f ranks/s", r.ranks_per_sec());
  std::printf("\n");
  return r;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_json(const std::string& path, const std::vector<SectionResult>& rs) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"engine\",\n"
     << "  \"sections\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    os << "    {\"name\": \"" << r.name << "\", \"sim_msgs\": " << r.m.msgs
       << ", \"wall_s\": " << num(r.m.wall_s)
       << ", \"msgs_per_sec\": " << num(r.msgs_per_sec())
       << ", \"rss_mb\": " << num(r.rss_mb);
    if (r.ranks > 0) {
      os << ", \"ranks\": " << r.ranks
         << ", \"ranks_per_sec\": " << num(r.ranks_per_sec());
    }
    if (r.m.speedup > 0) os << ", \"speedup\": " << num(r.m.speedup);
    os << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  os << "  ]\n"
     << "}\n";
  std::ofstream out(path);
  out << os.str();
  if (!out) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("[perf] wrote %s\n", path.c_str());
}

/// Pulls `"key": <number>` immediately following `"name": "<section>"` out
/// of a BENCH_engine.json. Returns -1 if absent.
double json_section_value(const std::string& text, const std::string& section,
                          const std::string& key) {
  const std::string anchor = "\"name\": \"" + section + "\"";
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) return -1;
  const std::size_t line_end = text.find('\n', at);
  const std::string needle = "\"" + key + "\": ";
  const std::size_t k = text.find(needle, at);
  if (k == std::string::npos || k > line_end) return -1;
  return std::strtod(text.c_str() + k + needle.size(), nullptr);
}

int compare_baseline(const std::string& path,
                     const std::vector<SectionResult>& rs, double tol_pct,
                     double rss_tol_pct) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "[perf] baseline %s not readable; skipping gate\n",
                 path.c_str());
    return 0;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  int failures = 0;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  for (const auto& r : rs) {
    if (r.name == "stencil_1m") {
      const bool ok = r.ranks_per_sec() > kStencil1mRanksPerSecFloor;
      std::printf("[perf] %-20s %12.0f ranks/s vs floor %.0f%s\n",
                  r.name.c_str(), r.ranks_per_sec(),
                  kStencil1mRanksPerSecFloor, ok ? "" : "  BELOW FLOOR");
      if (!ok) ++failures;
    }
    if (r.m.speedup > 0) {
      if (hw_threads < kJobsScalingMinHardwareThreads) {
        std::printf("[perf] %-20s speedup %.2fx not gated (%u hardware "
                    "threads < %u)\n",
                    r.name.c_str(), r.m.speedup, hw_threads,
                    kJobsScalingMinHardwareThreads);
      } else {
        const bool ok = r.m.speedup > kJobsScalingSpeedupFloor;
        std::printf("[perf] %-20s speedup %.2fx vs floor %.2fx%s\n",
                    r.name.c_str(), r.m.speedup, kJobsScalingSpeedupFloor,
                    ok ? "" : "  BELOW FLOOR");
        if (!ok) ++failures;
      }
    }
    const double base = json_section_value(text, r.name, "msgs_per_sec");
    if (base <= 0) {
      std::printf("[perf] %-20s no baseline entry; skipped\n", r.name.c_str());
      continue;
    }
    const double ratio = r.msgs_per_sec() / base;
    const bool ok = ratio >= 1.0 - tol_pct / 100.0;
    std::printf("[perf] %-20s %12.0f vs baseline %12.0f msgs/s (%+.1f%%)%s\n",
                r.name.c_str(), r.msgs_per_sec(), base, (ratio - 1.0) * 100.0,
                ok ? "" : "  REGRESSION");
    if (!ok) ++failures;
    // RSS gates in the other direction: bigger is worse.
    const double rss_base = json_section_value(text, r.name, "rss_mb");
    if (rss_base > 0 && r.rss_mb > 0) {
      const double rss_ratio = r.rss_mb / rss_base;
      const bool rss_ok = rss_ratio <= 1.0 + rss_tol_pct / 100.0;
      std::printf("[perf] %-20s %10.1f vs baseline %10.1f MB     (%+.1f%%)%s\n",
                  r.name.c_str(), r.rss_mb, rss_base,
                  (rss_ratio - 1.0) * 100.0, rss_ok ? "" : "  RSS REGRESSION");
      if (!rss_ok) ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "[perf] FAIL: %d gate(s) regressed beyond tolerance "
                 "(msgs/s %.0f%%, rss %.0f%%)\n",
                 failures, tol_pct, rss_tol_pct);
    return 1;
  }
  std::printf(
      "[perf] all sections within tolerance (msgs/s %.0f%%, rss %.0f%%)\n",
      tol_pct, rss_tol_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  std::string baseline_path;
  double tol_pct = 25.0;
  double rss_tol_pct = 25.0;

  util::FlagSet fs("[SECTION...]",
                   "Sections: fig05_stencil_4096 ext_fault_sweep "
                   "jobs_scaling stencil_1m (default: all).\n");
  auto path = [](std::string* dst) {
    return [dst](const std::string& p) { *dst = p; };
  };
  fs.add(util::path_flag("--out", "result JSON (default BENCH_engine.json)",
                         path(&out_path)));
  fs.add(util::path_flag("--baseline", "compare against this committed JSON",
                         path(&baseline_path)));
  fs.add(util::real_flag("--tolerance", "PCT",
                         "allowed msgs/s regression vs --baseline (default 25)",
                         0, [&tol_pct](double v) { tol_pct = v; }));
  fs.add(util::real_flag("--rss-tolerance", "PCT",
                         "allowed RSS regression vs --baseline (default 25)",
                         0, [&rss_tol_pct](double v) { rss_tol_pct = v; }));
  const std::vector<std::string> names = fs.parse(argc, argv);
  bool picked[std::size(kSections)] = {};
  for (const std::string& n : names) {
    const auto it = std::find_if(
        std::begin(kSections), std::end(kSections),
        [&n](const Section& s) { return n == s.name; });
    if (it == std::end(kSections)) fs.fail("unknown section '" + n + "'");
    picked[it - std::begin(kSections)] = true;
  }

  std::vector<SectionResult> results;
  for (std::size_t i = 0; i < std::size(kSections); ++i) {
    if (names.empty() || picked[i]) {
      results.push_back(run_isolated(kSections[i]));
    }
  }

  write_json(out_path, results);
  if (!baseline_path.empty()) {
    return compare_baseline(baseline_path, results, tol_pct, rss_tol_pct);
  }
  return 0;
}
