#include "core/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "check/checker.hpp"
#include "runtime/engine.hpp"
#include "runtime/fiber.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
#include "util/parse.hpp"

namespace mrl::cli {

namespace {

/// Observer outputs requested on the command line ("" = not requested).
struct Outputs {
  std::string metrics;
  std::string check_report;
  std::string trace;
  std::string trace_format = "chrome";
  std::string profile;
  bool link_summary = false;
  std::optional<std::vector<std::vector<std::string>>> metrics_rows;
};

// Intentionally leaked: publish() reads it from an atexit handler.
Outputs& outputs() {
  static Outputs* const out = new Outputs;
  return *out;
}

// The one write policy: a failure is fatal, a success is a notice on stderr.
void settle(const std::string& error, const char* tag,
            const std::string& path) {
  if (!error.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "FATAL: %s\n", error.c_str());
    std::_Exit(1);  // exit() may not be called from an atexit handler
  }
  std::fprintf(stderr, "%s %s\n", tag, path.c_str());
}

std::string error_of(const Status& st) {
  return st.is_ok() ? std::string() : st.to_string();
}

void print_link_summary(const runtime::MetricsRegistry& reg) {
  // Read from the same aggregate the CSV is written from, so the printed
  // numbers and the --metrics CSV always agree.
  const auto links = reg.link_totals();
  if (links.empty()) return;
  std::printf("\n[metrics] per-link queueing (aggregate over %llu runs)\n",
              static_cast<unsigned long long>(reg.runs()));
  for (const auto& l : links) {
    std::printf("[metrics]   %-18s dir%d  msgs=%-10llu busy=%.3fus  "
                "queue_us=%.3f\n",
                l.name.c_str(), l.dir, static_cast<unsigned long long>(l.msgs),
                l.busy_us(), l.queue_us());
  }
}

void publish() {
  const Outputs& o = outputs();
  if (!o.metrics.empty()) {
    // The registry only accumulates commutative quantities, so the
    // aggregate's bytes are independent of scheduler and --jobs.
    const auto& reg = runtime::MetricsRegistry::instance();
    if (o.metrics_rows) {
      settle(error_of(runtime::write_metrics_csv(o.metrics, *o.metrics_rows)),
             "[metrics]", o.metrics);
    } else {
      if (o.link_summary) print_link_summary(reg);
      settle(error_of(reg.write_csv(o.metrics)), "[metrics]", o.metrics);
    }
  }
  if (!o.check_report.empty()) {
    // Sorted verdicts: bytes independent of scheduler and --jobs.
    settle(error_of(check::CheckReportRegistry::instance().write_json(
               o.check_report)),
           "[check-report]", o.check_report);
  }
  // The profiler dumps read the deterministically captured (slowest) run.
  if (!o.trace.empty()) {
    settle(runtime::dump_captured_trace(o.trace, o.trace_format)
               ? ""
               : "could not write --trace " + o.trace,
           "[trace]", o.trace);
  }
  if (!o.profile.empty()) {
    settle(runtime::dump_captured_profile(o.profile)
               ? ""
               : "could not write --profile " + o.profile,
           "[profile]", o.profile);
  }
}

/// A dump flag: records its path in `*dst` (the last one wins), runs `on`,
/// and registers publish() once per process.
util::Flag dump_flag(std::string name, std::string help,
                     std::string Outputs::*dst, void (*on)()) {
  return util::path_flag(std::move(name), std::move(help),
                         [dst, on](const std::string& path) {
                           outputs().*dst = path;
                           on();
                           static const bool registered =
                               std::atexit(&publish) == 0;
                           (void)registered;
                         });
}

void enable_spans() {
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);
}

struct PlatformName {
  const char* name;
  simnet::Platform (*cpu)(int nodes);  // null for GPU platforms
  simnet::Platform (*gpu)();
};

const PlatformName kPlatforms[] = {
    {"perlmutter-cpu", &simnet::Platform::perlmutter_cpu, nullptr},
    {"frontier-cpu", &simnet::Platform::frontier_cpu, nullptr},
    {"summit-cpu", &simnet::Platform::summit_cpu, nullptr},
    {"perlmutter-gpu", nullptr, &simnet::Platform::perlmutter_gpu},
    {"summit-gpu", nullptr, &simnet::Platform::summit_gpu},
    {"frontier-gpu", nullptr, &simnet::Platform::frontier_gpu},
};

const std::pair<const char*, core::SweepKind> kRuntimes[] = {
    {"two-sided", core::SweepKind::kTwoSided},
    {"one-sided", core::SweepKind::kOneSidedMpi},
    {"shmem", core::SweepKind::kShmemPutSignal},
    {"cas", core::SweepKind::kAtomicCas},
};

}  // namespace

util::Flag jobs_flag(int* jobs) {
  return util::int_flag(
      "--jobs",
      "run up to N independent grid points concurrently (output is "
      "bit-identical for every N)",
      1, [jobs](int n) { *jobs = n; });
}

util::Flag scheduler_flag() {
  return util::choice_flag(
      "--scheduler", "S",
      "engine ready-queue: 'heap' (default, indexed min-heap) or 'linear' "
      "(O(ranks) scan); output is bit-identical across both",
      {"heap", "linear"}, [](const std::string& s) {
        runtime::set_default_scheduler(
            s == "heap" ? runtime::SchedulerKind::kIndexedHeap
                        : runtime::SchedulerKind::kLinearScan);
      });
}

util::Flag fault_seed_flag(std::uint64_t* seed) {
  return {"--fault-seed", "S",
          "seed for the fault-injection substreams (default 0x5EEDF007); "
          "same seed => byte-identical output",
          [seed](const std::string& v) {
            const std::optional<unsigned long long> s = parse_u64(v, 0);
            if (!s) return "invalid --fault-seed value '" + v + "'";
            *seed = static_cast<std::uint64_t>(*s);
            return std::string();
          }};
}

util::Flag stack_bytes_flag() {
  return util::int_flag(
      "--stack-bytes",
      "fiber stack size in bytes (N >= 16384; default 256 KiB; lower it for "
      "very high rank counts)",
      16 * 1024, [](int n) {
        runtime::set_default_fiber_stack_bytes(static_cast<std::size_t>(n));
      });
}

void add_observer_flags(util::FlagSet& fs, bool link_summary) {
  outputs().link_summary = link_summary;
  fs.add(dump_flag(
      "--metrics",
      "enable the metrics layer and write its CSV to PATH at exit "
      "(byte-identical across schedulers and --jobs)",
      &Outputs::metrics, [] { runtime::set_default_metrics(true); }));
  fs.add(util::switch_flag(
      "--check",
      "enable the RMA race & synchronization checker (also MSGROOF_CHECK=1); "
      "violations fail the run, clean runs keep their output bytes",
      [] { check::set_default_check(true); }));
  fs.add(util::int_flag(
      "--check-history",
      "per-region shadow-history cap for the checker (default 65536)", 1,
      [](int n) {
        check::set_default_check_history(static_cast<std::uint64_t>(n));
      }));
  fs.add(dump_flag("--check-report",
                   "implies --check; write every checker verdict as sorted "
                   "JSON to PATH at exit, even when the run failed",
                   &Outputs::check_report,
                   [] { check::set_default_check(true); }));
  fs.add(dump_flag("--trace",
                   "enable per-rank spans and write the captured (slowest) "
                   "run's timeline to PATH at exit",
                   &Outputs::trace, &enable_spans));
  fs.add(util::choice_flag(
      "--trace-format", "F",
      "trace format: 'chrome' (default; Perfetto JSON with rank timelines "
      "and counter tracks) or 'csv' (message records)",
      {"chrome", "csv"},
      [](const std::string& f) { outputs().trace_format = f; }));
  fs.add({"--trace-ranks", "A-B",
          "only emit rank timelines for ranks A..B inclusive (counter tracks "
          "stay global)",
          [](const std::string& v) {
            char* end = nullptr;
            const long lo = std::strtol(v.c_str(), &end, 10);
            long hi = -1;
            bool ok = end != v.c_str() && *end == '-' && lo >= 0;
            if (ok) {
              const char* rest = end + 1;
              hi = std::strtol(rest, &end, 10);
              ok = end != rest && *end == '\0' && hi >= lo;
            }
            if (!ok) {
              return "invalid --trace-ranks value '" + v +
                     "' (expected A-B with 0 <= A <= B)";
            }
            runtime::set_default_trace_ranks(
                {static_cast<int>(lo), static_cast<int>(hi)});
            return std::string();
          }});
  fs.add(dump_flag("--profile",
                   "run the critical-path analyzer on the captured run and "
                   "write its report to PATH at exit",
                   &Outputs::profile, &enable_spans));
}

void replace_metrics_aggregate(std::vector<std::vector<std::string>> rows) {
  outputs().metrics_rows = std::move(rows);
}

Result<simnet::Platform> platform_by_name(const std::string& name, int nodes) {
  for (const PlatformName& p : kPlatforms) {
    if (name != p.name) continue;
    if (p.cpu != nullptr) return p.cpu(nodes);
    if (nodes != 1) {
      return Status(ErrorCode::kInvalidArgument,
                    "--nodes only applies to CPU platforms");
    }
    return p.gpu();
  }
  return Status(ErrorCode::kInvalidArgument,
                "unknown platform '" + name + "'");
}

Result<core::SweepKind> sweep_kind_by_name(const std::string& name) {
  for (const auto& [n, kind] : kRuntimes) {
    if (name == n) return kind;
  }
  return Status(ErrorCode::kInvalidArgument, "unknown runtime '" + name + "'");
}

std::string platform_names() {
  std::string s;
  for (const PlatformName& p : kPlatforms) {
    if (!s.empty()) s += ' ';
    s += p.name;
  }
  return s;
}

std::string runtime_names() {
  std::string s;
  for (const auto& r : kRuntimes) {
    if (!s.empty()) s += ' ';
    s += r.first;
  }
  return s;
}

}  // namespace mrl::cli
