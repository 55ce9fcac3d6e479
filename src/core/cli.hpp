// What every front-end (the benches, msgroof_cli, perf_harness,
// roofline_explorer) shares on its command line: the shared flags, each
// defined once here, the platform/runtime name table, and the one seam that
// writes the observer outputs at exit.
//
// The seam: --metrics, --check-report, --trace and --profile record their
// path (the last one given wins) and register a single atexit handler, once
// per process. At exit it writes each requested file in that order; a write
// failure prints "FATAL: ..." and exits 1, and each written file gets a
// "[metrics] PATH"-style notice on stderr. Because it runs at exit, the
// check report is written even when the run failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "simnet/platform.hpp"
#include "util/flags.hpp"
#include "util/status.hpp"

namespace mrl::cli {

/// --jobs N (N >= 1), stored in `*jobs`.
util::Flag jobs_flag(int* jobs);
/// --scheduler heap|linear: the engine's default ready-queue structure.
util::Flag scheduler_flag();
/// --fault-seed S, stored in `*seed`.
util::Flag fault_seed_flag(std::uint64_t* seed);
/// --stack-bytes N: the default fiber stack size.
util::Flag stack_bytes_flag();

/// Registers the observer flags: --metrics, --check, --check-history,
/// --check-report, --trace, --trace-format, --trace-ranks, --profile. With
/// `link_summary`, writing the metrics aggregate also prints its per-link
/// queueing summary on stdout.
void add_observer_flags(util::FlagSet& fs, bool link_summary);

/// Makes --metrics write `rows` (a caller's full report) at exit instead of
/// the process-wide aggregate.
void replace_metrics_aggregate(std::vector<std::vector<std::string>> rows);

/// The platform registered under a CLI name ("perlmutter-cpu", ...); CPU
/// platforms are scaled to `nodes`, GPU platforms reject nodes != 1.
Result<simnet::Platform> platform_by_name(const std::string& name,
                                          int nodes = 1);
/// The sweep kind registered under a CLI runtime name ("two-sided", ...).
Result<core::SweepKind> sweep_kind_by_name(const std::string& name);
/// The registered names, space-separated, for usage texts.
std::string platform_names();
std::string runtime_names();

}  // namespace mrl::cli
