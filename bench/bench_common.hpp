// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints (a) the paper-style table/plot on stdout and (b) dumps
// its series as CSV under bench_out/ so figures can be regenerated with any
// plotting tool. `--full` switches from the fast default problem sizes to
// paper-scale ones.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/parallel.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/status.hpp"

namespace mrl::bench {

struct Args {
  bool full = false;  ///< paper-scale problem sizes (slower)
  int jobs = 0;       ///< concurrent grid points; 0 = hardware concurrency
  /// Experiment seed for fault-injection substreams (benches that sweep
  /// FaultSpecs, e.g. ext_fault_sweep). Same seed => byte-identical output.
  std::uint64_t fault_seed = 0x5EEDF007ULL;

  /// Parses the shared bench flags plus a bench's own `extra` flags; any
  /// other argument is a usage error (rc 2).
  static Args parse(int argc, char** argv,
                    std::vector<util::Flag> extra = {}) {
    Args a;
    util::FlagSet fs;
    fs.add(util::switch_flag("--full", "paper-scale problem sizes (slower)",
                             [&a] { a.full = true; }));
    fs.add(cli::jobs_flag(&a.jobs));
    fs.add(cli::scheduler_flag());
    fs.add(cli::fault_seed_flag(&a.fault_seed));
    cli::add_observer_flags(fs, /*link_summary=*/true);
    for (util::Flag& f : extra) fs.add(std::move(f));
    const std::vector<std::string> rest = fs.parse(argc, argv);
    if (!rest.empty()) fs.fail("unrecognized argument '" + rest.front() + "'");
    if (a.jobs >= 1) core::set_default_jobs(a.jobs);
    return a;
  }
};

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n\n");
}

inline void dump_csv(const std::string& name,
                     const std::vector<std::vector<std::string>>& rows) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  const std::string path = "bench_out/" + name + ".csv";
  const Status st = write_csv_file(path, rows);
  if (!st.is_ok()) {
    // A partial/missing CSV must not look like a successful run.
    std::fprintf(stderr, "FATAL: %s\n", st.to_string().c_str());
    std::exit(1);
  }
  std::printf("[csv] %s\n", path.c_str());
}

/// Unwraps a Result or exits the bench with the carried Status on stderr —
/// a deadlocked/timed-out simulation must fail the binary, not silently
/// emit a partial table.
template <typename T>
T unwrap(Result<T> r) {
  if (!r.is_ok()) {
    std::fprintf(stderr, "FATAL: %s\n", r.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace mrl::bench
