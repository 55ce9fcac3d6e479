// Process-wide profiler capture (DESIGN.md §14).
//
// `--trace PATH` / `--profile PATH` dump ONE run's message trace, execution
// spans, and critical-path report at process exit, but a bench may execute
// thousands of engine runs (sweeps × repetitions) completing in a
// nondeterministic order under `--jobs N`. ProfileCapture therefore keeps
// exactly one RunCapture, selected by a deterministic total order on
// (makespan picoseconds, nranks, span count, message count) — the slowest
// run wins, exact key ties broken by an elementwise record comparison — so
// the captured bytes are independent of publish order, i.e. identical
// across schedulers and job counts (asserted by
// tests/profile_test.cpp and the CI byte-compare job).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "simnet/trace_export.hpp"

namespace mrl::runtime {

class Engine;
struct RunResult;

/// Process-wide `--trace-ranks A-B` filter, applied at dump time (slice
/// output only; counter tracks always cover the whole run). hi < 0 means
/// "through the last rank".
struct TraceRanks {
  int lo = 0;
  int hi = -1;
};

[[nodiscard]] TraceRanks default_trace_ranks();
void set_default_trace_ranks(TraceRanks r);

/// The singleton that owns the winning RunCapture.
class ProfileCapture {
 public:
  static ProfileCapture& instance();

  /// Offers a completed spans-enabled run (called by Engine::run).
  /// Thread-safe; keeps the capture that is maximal under the deterministic
  /// order described in the header comment. Cheap when the offered run loses
  /// on the key alone — the stores are only copied for a winner.
  void offer(Engine& e, const RunResult& res);

  [[nodiscard]] bool has_capture() const;
  /// Copy of the winning capture (default-constructed when none).
  [[nodiscard]] simnet::RunCapture capture() const;
  void reset();

 private:
  ProfileCapture() = default;

  mutable std::mutex mu_;
  bool has_ = false;
  std::array<std::uint64_t, 4> key_{};  ///< makespan_pico, nranks, spans, msgs
  simnet::RunCapture cap_;
};

/// Writes the captured run to `path`: format "chrome" emits the combined
/// Chrome tracing JSON (messages + rank timelines + counters), format "csv"
/// the message-trace CSV (same columns as export_trace_csv). Both apply the
/// process-wide trace-ranks filter. Returns false (with a warning log) when
/// nothing was captured or the file cannot be written.
bool dump_captured_trace(const std::string& path, const std::string& format);

/// Writes the captured run's deterministic critical-path report
/// (simnet/critpath.hpp) to `path`. Returns false when nothing was captured
/// or the file cannot be written.
bool dump_captured_profile(const std::string& path);

}  // namespace mrl::runtime
