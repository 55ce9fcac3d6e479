// Shared pieces of the host-performance benchmark: host clocks and memory,
// the benchmark-side span recorder, the workload interface, and a minimal
// JSON line writer. See README.md for what each workload and metric means.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simnet/platform.hpp"
#include "workloads/embedding/embedding.hpp"

namespace perfbench {

// Shapes shared by the workloads and the workloads.* probes, which run at
// these shapes on every workload.
inline constexpr int kStencilRanks = 100000;
inline constexpr int kStencilN = 512;  ///< global grid is kStencilN^2
inline constexpr int kEmbedMpiRanks = 64;
/// embedding_serving's lookup config (policy and query seed vary per run).
mrl::workloads::embedding::Config embedding_config();

/// Host time in seconds (steady_clock).
double now_s();

/// A /proc/self/status field in MiB ("VmRSS", "VmHWM"); -1 if unreadable.
double proc_status_mb(const char* field);

/// In-memory spans recorded by the benchmark around its calls into each
/// layer. Nothing inside the program is instrumented. The timed pass passes
/// a null recorder, so it records nothing.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root span
  };

  /// RAII span: opens on construction, closes on destruction. A null
  /// recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  /// Sum of durations of every span named `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Writes `index,name,start_s,end_s,parent` rows (times relative to the
  /// first span). Returns false on an I/O error.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Outcome of one pass (or of the first steps of one) of a workload's timed
/// region.
struct PassResult {
  int attempted = 0;      ///< simulation runs
  int failed = 0;         ///< runs with a non-ok Status or a wrong output
  std::string error;      ///< first failure, for the log
  std::uint64_t msgs = 0; ///< simulated messages (never from MetricsRegistry)
  /// Work done, keyed by the per-layer unit-cost metric it multiplies in the
  /// layer split (e.g. {"mpi.put_flush_ns", puts}).
  std::vector<std::pair<std::string, double>> work;
  /// Exact counts the workload's own results report (e.g. embedding gets).
  std::vector<std::pair<std::string, double>> counts;

  void fail(const std::string& why) {
    ++failed;
    if (error.empty()) error = why;
  }
  void add_work(const std::string& key, double n) { add(work, key, n); }
  void add_count(const std::string& key, double n) { add(counts, key, n); }
  void merge(const PassResult& o);

 private:
  static void add(std::vector<std::pair<std::string, double>>& v,
                  const std::string& key, double n);
};

/// Where a workload's traffic goes, for the simnet probes.
struct Traffic {
  const mrl::simnet::Platform* platform = nullptr;
  mrl::simnet::Runtime runtime = mrl::simnet::Runtime::kOneSidedMpi;
  std::vector<std::pair<int, int>> endpoint_pairs;  ///< (src, dst)
  std::vector<std::uint64_t> msg_bytes;
};

/// The shape the per-layer probes run at.
struct ProbeShape {
  std::function<std::vector<mrl::simnet::Platform>()> build_platforms;
  const mrl::simnet::Platform* cpu = nullptr;  ///< engine/MPI probes
  int nranks = 2;                              ///< engine/barrier probes
  std::vector<Traffic> traffic;
};

/// A workload's timed region is a pass: a fixed sequence of steps, each one
/// simulation run through public layer functions.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds platforms and generates inputs from `seed`.
  virtual void build(std::uint64_t seed) = 0;
  /// True when set-up ends with one cold warm-up pass and the timed region
  /// repeats passes; false for a workload run once per process.
  [[nodiscard]] virtual bool repeats() const = 0;
  [[nodiscard]] virtual int steps() const = 0;
  /// Runs step `i` of the current pass, checks its outputs against the
  /// recorded values and adds its outcome to `r`.
  virtual void step(int i, PassResult& r, SpanRecorder* rec) = 0;
  /// Moves on to the next pass's inputs.
  virtual void end_pass() {}
  /// How many leading steps a pass under the RMA checker may cover (all by
  /// default); a workload whose later steps take minutes under the checker
  /// lowers it.
  [[nodiscard]] virtual int checked_steps() const { return steps(); }
  /// Prints this workload's expected-output table (C++ initializers, the
  /// contents of expected.inc for this workload).
  virtual void record(std::FILE* out) = 0;
  [[nodiscard]] virtual ProbeShape shape() const = 0;
};

/// Runs the first `max_steps` steps of a pass (all when negative), or, with
/// `budget_s` >= 0, steps until that many seconds have passed (at least one).
/// With `end` false the pass is not ended, so the next call replays it.
PassResult run_pass(Workload& w, SpanRecorder* rec, int max_steps = -1,
                    double budget_s = -1, int* steps_run = nullptr,
                    bool end = true);

std::unique_ptr<Workload> make_workload(const std::string& name);

/// Runs every per-layer probe at `w`'s shape and appends (name, value)
/// pairs. Each probe runs inside a span of `rec`.
void run_probes(Workload& w, SpanRecorder& rec,
                std::vector<std::pair<std::string, double>>& out);

/// One JSON object on one line, built key by key.
class JsonLine {
 public:
  void num(const std::string& key, double v);
  void str(const std::string& key, const std::string& v);
  void nums(const std::string& key, const std::vector<double>& v);
  void raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// `v` as a JSON number with all its digits (null when not finite).
std::string json_number(double v);
/// `s` as a JSON string literal.
std::string json_string(const std::string& s);

}  // namespace perfbench
