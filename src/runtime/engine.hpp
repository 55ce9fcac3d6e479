// Deterministic cooperative rank engine (conservative parallel discrete-event
// simulation, sequentialized).
//
// Each rank runs real application code, but exactly one rank executes at a
// time (a baton). Every fabric-visible action goes through Engine::perform(),
// which re-queues the caller and grants the baton to the runnable rank with
// the smallest virtual clock. Actions therefore execute in global
// virtual-time order, which makes link contention causally correct and the
// whole simulation bit-reproducible.
//
// Blocking operations (receives, signal waits) use Engine::wait() with a
// condition closure that returns the wake-up virtual time once satisfiable,
// and a WaitGate naming the monotone counter whose advance can satisfy it.
// If every live rank is blocked, the engine reports a deadlock instead of
// hanging — with each rank's self-described wait reason.
//
// Execution (DESIGN.md §8): every rank is a stackful user-level fiber
// (runtime/fiber.{hpp,cpp}) and the whole engine runs on ONE OS thread —
// whichever thread called run(). perform()/wait() hand the baton over with a
// direct user-space context switch: no mutex, no condvar, no kernel
// involvement. Because a fiber is just a stack (a few hundred KiB of lazily
// committed virtual memory), rank counts in the hundreds of thousands are
// practical. ThreadSanitizer follows the switches through the fiber
// annotations in fiber.cpp.
//
// Scheduling hot paths (sweeps call run() thousands of times):
//   * rank fibers are created once, on the first run(), and parked between
//     runs — repeated run() calls reuse them instead of recreating nranks
//     execution contexts per grid point;
//   * baton handoff is targeted: only the granted rank resumes (a rank whose
//     wait condition becomes satisfiable is re-queued but stays suspended
//     until actually granted), and a rank that remains the min-clock
//     runnable rank continues with no switch at all;
//   * keep-baton fast path (kIndexedHeap): perform() and a wait satisfiable
//     at entry compare the caller's (wake, id) with the ready-queue top
//     first; if the caller is still the minimum it keeps the baton with no
//     queue push, erase or state change — exactly the grant the
//     push-then-pick path would make (kLinearScan keeps the full path as
//     the oracle);
//   * the per-operation protocol allocates nothing: perform/wait take their
//     action, condition and finalize as util::FunctionRef (two pointers,
//     non-owning), so a `[&]` lambda at the call site is never copied into
//     a heap-allocated std::function. Lifetime rule: the callable must
//     outlive the call that receives it, and the engine never keeps a ref
//     past the wait that received it (rank_cond_ holds one only while that
//     rank is parked inside the wait);
//   * the scheduler selects the min-clock rank from a ready queue keyed
//     (wake time, rank id) with a sorted-run front (util/sorted_run.hpp):
//     a push that orders after the last appended entry — a same-time
//     wave re-queues its ranks in rank-id order, and 92% of stencil_scale's
//     pushes qualify — is a FIFO append and the grant pops the front, both
//     O(1); any other push goes to an indexed binary min-heap, O(log n)
//     (DESIGN.md §10). Ties break toward the lowest rank id, exactly the
//     order the legacy linear scan produced, so output is bit-identical to
//     it (SchedulerKind::kLinearScan keeps the legacy structure selectable
//     for the abl_design ablation and as a differential-testing oracle);
//   * every wait carries a WaitGate (a monotone counter + threshold): a
//     blocked rank is parked in a per-counter threshold heap, its one gate
//     channel, and its condition is not re-evaluated at all until the
//     counter reaches the threshold. A perform re-tests no condition unless
//     it advanced a counter to a waiter's threshold, so a P-rank
//     barrier/fence wave is O(P log P) rather than Σ|blocked| ≈ P²/2
//     condition closures (minutes of wall time at 100k ranks; DESIGN.md
//     §10, §12);
//   * the scheduler's per-rank hot fields (clock, wake, state, wait
//     condition) live in parallel flat arrays indexed by rank id — a
//     structure-of-arrays layout — instead of pointer-chased per-rank
//     objects, so dispatch and wake walks touch a few contiguous cache
//     lines per rank instead of a heap object each (DESIGN.md §12).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "runtime/fiber.hpp"
#include "runtime/metrics.hpp"
#include "simnet/fabric.hpp"
#include "simnet/platform.hpp"
#include "simnet/spans.hpp"
#include "simnet/time.hpp"
#include "simnet/trace.hpp"
#include "util/function_ref.hpp"
#include "util/sorted_run.hpp"
#include "util/status.hpp"

namespace mrl::runtime {

class Engine;

/// Vestigial: fibers are the only execution backend. Kept, together with
/// the no-op set_default_backend() below, solely because the perfbench
/// sources still call set_default_backend(EngineBackend::kFibers); both go
/// when that benchmark is next edited.
enum class EngineBackend { kFibers };
inline void set_default_backend(EngineBackend) {}

/// Ready-queue data structure (DESIGN.md §10).
enum class SchedulerKind {
  kIndexedHeap,  ///< sorted run + indexed heap on (wake, id); O(1) per wave op
  kLinearScan,   ///< legacy O(ranks) scan + std::find removal (ablation oracle)
};

[[nodiscard]] const char* to_string(SchedulerKind s);

/// Process-wide default scheduler for newly built EngineOptions (initially
/// kIndexedHeap). Both produce bit-identical simulations; the linear scan is
/// kept for the abl_design dispatch ablation and differential tests.
[[nodiscard]] SchedulerKind default_scheduler();
void set_default_scheduler(SchedulerKind s);

/// Process-wide default for EngineOptions::watchdog_virtual_us (initially
/// 1e9). CLI/bench `--watchdog-us` flags override it; 0 disables the
/// watchdog.
[[nodiscard]] double default_watchdog_virtual_us();
void set_default_watchdog_virtual_us(double us);

/// Process-wide default for EngineOptions::fiber_stack_bytes (initially
/// 256 KiB). Lowering it makes very-high-rank-count runs cheaper, which
/// matters when metrics-enabled runs poison whole stacks for the HWM scan.
[[nodiscard]] std::size_t default_fiber_stack_bytes();
void set_default_fiber_stack_bytes(std::size_t bytes);

/// Process-wide default for EngineOptions::trace (initially false). The
/// CLI/bench `--trace`/`--profile` flags flip it so every engine constructed
/// afterwards, the workload runners' included, stores its message records.
[[nodiscard]] bool default_trace();
void set_default_trace(bool on);

/// Process-wide default for EngineOptions::spans (initially false). The
/// CLI/bench `--trace`/`--profile` flags flip it on (DESIGN.md §14).
[[nodiscard]] bool default_spans();
void set_default_spans(bool on);

/// Wake rule of an Engine::wait (DESIGN.md §10, §12). `counter` points at a
/// monotonically nondecreasing std::uint64_t (a collective generation, a
/// per-(src,dst) message sequence number, a delivery queue's push count)
/// that only changes inside Engine::perform bodies and outlives the wait.
/// The contract: the wait condition is unsatisfiable while
/// `*counter < threshold`, and the condition can only BECOME satisfiable in
/// a perform that also advances the counter. The heap scheduler parks the
/// waiter in a per-counter threshold heap and evaluates the condition only
/// when the counter crosses the threshold, turning O(P²) collective/recv
/// waves into O(P log P). If the condition is still unsatisfiable at the
/// crossing (e.g. a message arrived on the gated channel but with a
/// non-matching tag), the waiter is re-parked at the counter's current
/// value + 1 — the next advance re-tests it. Collective generations satisfy
/// the stricter "satisfiable at threshold" property and never re-park. The
/// counter is required: a null one is a programming error. The linear-scan
/// scheduler ignores gates and re-evaluates every blocked condition after
/// every perform, the brute-force differential-testing oracle.
struct WaitGate {
  const std::uint64_t* counter = nullptr;
  std::uint64_t threshold = 0;
};

/// Per-rank execution context. Handed by reference to the rank body; valid
/// only for the duration of Engine::run().
///
/// Rank itself carries only the cold, mostly-immutable identity fields; the
/// scheduler-hot mutable state (clock, wake, run state, wait condition)
/// lives in the Engine's SoA arrays indexed by id() — now() and
/// advance() are inline delegates (defined after Engine). This keeps a
/// million Rank objects at ~56 B each and keeps the dispatch working set in
/// flat arrays.
class Rank {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] simnet::TimeUs now() const;

  /// Charges local compute time (the only way user code consumes virtual
  /// time outside communication).
  void advance(double dt_us);

  /// Endpoint hosting this rank on the platform topology.
  [[nodiscard]] int endpoint() const { return endpoint_; }

  /// Compute-time multiplier from fault injection (1.0 unless this rank is
  /// a straggler). Communication layers apply it in their compute() helpers;
  /// advance() itself is unscaled because it also implements absolute-time
  /// waits (flush/quiet completion), which are not compute.
  [[nodiscard]] double compute_scale() const { return compute_scale_; }

  /// Sender-side synchronization epoch (bumped by comm layers at each sync;
  /// the trace uses it to compute messages-per-sync, and the metrics layer
  /// counts it as one synchronization). It only grows within a run, which
  /// the trace's exact epoch count relies on. Defined after Engine.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  void bump_epoch();

  [[nodiscard]] Engine& engine() const { return *engine_; }

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

 private:
  friend class Engine;
  Rank() = default;

  Engine* engine_ = nullptr;
  int id_ = -1;
  int size_ = 0;
  int endpoint_ = -1;
  std::uint64_t epoch_ = 0;
  double compute_scale_ = 1.0;
  /// Last blocking wait this rank entered (and when, in virtual time) —
  /// survives the wait itself, so watchdog/deadlock reports can say what a
  /// stuck-or-finished rank last blocked on, not just who is blocked now.
  const char* last_wait_what_ = nullptr;
  simnet::TimeUs last_wait_t_ = 0;
};

struct EngineOptions {
  /// Store every message record (Trace::records()). Trace summaries are
  /// folded whether or not this is on, so workloads never need to set it.
  bool trace = default_trace();
  /// Record per-rank execution spans (simnet/spans.hpp, DESIGN.md §14) for
  /// the profiler and critical-path analyzer. Like metrics: off by default,
  /// one branch per hook when disabled, and never perturbs simulated time —
  /// enabling it leaves every CSV byte-identical.
  bool spans = default_spans();
  /// Virtual-time progress watchdog: when a rank's clock passes this limit
  /// at a communication operation (perform/wait), the run is converted into
  /// Status(kTimeout) with per-rank diagnostics instead of spinning forever
  /// (e.g. a CAS retry storm that never wins under injected faults). The
  /// watchdog only observes communication ops — a body that loops without
  /// ever touching the engine is outside its contract. 0 disables it.
  double watchdog_virtual_us = default_watchdog_virtual_us();
  /// Ready-queue structure. kIndexedHeap and kLinearScan produce bit-identical
  /// simulations; the linear scan exists for ablation and differential tests.
  SchedulerKind scheduler = default_scheduler();
  /// Usable stack bytes per rank fiber. Each stack is an unguarded slot of
  /// a pooled slab (runtime/fiber.hpp, DESIGN.md §12) of lazily committed
  /// virtual memory, so thousands of ranks are cheap; raise this for rank
  /// bodies with deep call chains or large stack frames.
  std::size_t fiber_stack_bytes = default_fiber_stack_bytes();
  /// Collect deterministic per-rank/per-link metrics (DESIGN.md §9) and
  /// per-fiber stack high-water-marks. Disabled metrics cost one branch per
  /// hook and change no simulated time either way.
  bool metrics = default_metrics();
  /// Run the RMA race & synchronization checker (DESIGN.md §11). Like
  /// metrics: off by default, one branch per hook when disabled, and never
  /// perturbs simulated time — enabling it leaves every CSV byte-identical.
  /// Violations turn an otherwise-ok run into Status(kFailedPrecondition).
  bool check = check::default_check();
  /// Shadow-history cap per (window, owner-rank) region for the checker.
  std::uint64_t check_history = check::default_check_history();
};

/// Host-side self-counters of one run (always on; one increment each; reset
/// at the start of every run()). They describe the simulator's own work,
/// not the simulated machine: they depend on the scheduler kind (the linear
/// scan ignores gates and never takes the keep-baton path) but are exactly
/// reproducible for a given scheduler and workload.
struct EngineCounters {
  std::uint64_t performs = 0;          ///< Engine::perform calls
  std::uint64_t keep_baton = 0;        ///< grants taken on the keep-baton path
  std::uint64_t switches = 0;          ///< fiber context switches (incl. main)
  std::uint64_t ready_pushes = 0;      ///< ready-queue inserts (incl. start)
  std::uint64_t ready_run_pushes = 0;  ///< of those, appended to the sorted run
  std::uint64_t ready_erases = 0;      ///< ready-queue removals
  std::uint64_t gate_crossings = 0;    ///< gated waiters popped at threshold
  std::uint64_t reparks = 0;           ///< crossed gates, cond still false
  std::uint64_t cond_evals = 0;        ///< wait-condition evaluations
  std::uint64_t fabric_transfers = 0;  ///< Fabric::transfer calls this run
};

struct RunResult {
  Status status;
  simnet::TimeUs makespan_us = 0;  ///< max final rank clock
  std::vector<simnet::TimeUs> rank_end_us;

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// The engine: owns the platform fabric, the trace, and rank scheduling.
class Engine {
 public:
  Engine(simnet::Platform platform, int nranks, EngineOptions opt = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `body` on every rank to completion (or deadlock/exception).
  /// May be called repeatedly; rank clocks, epochs, and the trace reset at
  /// each call, and fabric contention state resets too unless EngineOptions
  /// says otherwise. Rank fibers persist across calls. A reentrant call
  /// (from a rank body, or concurrently from another thread) returns
  /// Status(kInvalidArgument) instead of starting.
  RunResult run(const std::function<void(Rank&)>& body);

  [[nodiscard]] const simnet::Platform& platform() const { return platform_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] SchedulerKind scheduler() const { return opt_.scheduler; }
  [[nodiscard]] simnet::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] simnet::Trace& trace() { return trace_; }
  [[nodiscard]] simnet::Spans& spans() { return spans_; }
  [[nodiscard]] const simnet::Spans& spans() const { return spans_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] check::Checker& checker() { return checker_; }
  [[nodiscard]] const check::Checker& checker() const { return checker_; }
  /// Self-counters of the current (or last completed) run.
  [[nodiscard]] EngineCounters counters() const {
    EngineCounters c = counters_;
    // The fabric counts its own transfers and is reset at every run().
    c.fabric_transfers = fabric_->total_msgs();
    return c;
  }

  /// Records one fabric-visible message into the trace AND the metrics
  /// collector (the single choke point that keeps the two in agreement).
  /// `is_get` marks round trips that pull bytes toward the issuing rank.
  void record_msg(const simnet::MsgRecord& rec, bool is_get = false) {
    trace_.record(rec);
    metrics_.on_msg(rec, is_get);
  }

  /// Records one blocking-advance execution span (DESIGN.md §14): the rank's
  /// clock advanced from `t0` to now inside a communication round trip or
  /// drain (get/atomic/flush/quiet/send-drain) without parking in the
  /// engine. `q_us`/`s_us` carry the fabric's queueing/serialization share
  /// of the interval; the remainder is latency. No-op unless spans are on.
  void record_advance_span(Rank& r, simnet::SpanKind kind, simnet::TimeUs t0,
                           int peer, std::uint64_t bytes, double q_us = 0,
                           double s_us = 0) {
    if (!opt_.spans) return;
    simnet::SpanRecord sp;
    sp.rank = r.id();
    sp.peer = peer;
    sp.kind = kind;
    sp.t_begin = t0;
    sp.t_end = r.now();
    sp.bytes = bytes;
    sp.q_us = q_us;
    sp.s_us = s_us;
    spans_.record(sp);
  }

  /// Snapshot of the last completed run: per-rank counters/histograms,
  /// per-link utilization/queueing, makespan and fiber stack high-water
  /// marks. Empty sections when metrics are disabled.
  [[nodiscard]] MetricsReport metrics_report() const;

  /// Per-fiber stack high-water-marks in rank order. Empty when metrics are
  /// disabled (stacks are only poisoned — and therefore measurable — on
  /// metrics-enabled runs).
  [[nodiscard]] std::vector<std::size_t> stack_high_water_bytes() const;

  // --- protocol for communication layers (called from rank contexts) ---
  //
  // Callables are passed as non-owning util::FunctionRef: the caller's
  // lambda (or other callable) must outlive the call. The engine never
  // keeps one past the call that received it; a parked wait's condition is
  // referenced only until that same wait returns.

  using Action = util::FunctionRef<void()>;
  using WaitCond = util::FunctionRef<std::optional<double>()>;

  /// Executes `fn` under the global virtual-time ordering: the calling rank
  /// yields, is re-granted when it has the minimum clock among runnable
  /// ranks (or, still being the minimum, keeps the baton without yielding),
  /// and runs `fn` while the engine is quiescent. After `fn`, the waiters
  /// whose gate counter `fn` advanced to their threshold re-test their
  /// conditions (under kLinearScan, every blocked waiter does).
  void perform(Rank& r, Action fn);

  /// Blocks until `cond` returns a wake time; advances the rank clock to
  /// max(clock, wake). `cond` is evaluated while the engine is quiescent and
  /// must be monotonic: once satisfiable it stays satisfiable. `what` labels
  /// the wait in deadlock reports. `gate` names the monotone counter whose
  /// advance can satisfy `cond` (see WaitGate): the engine will not re-test
  /// `cond` until `*gate.counter >= gate.threshold`; a null counter aborts.
  /// If `finalize` is non-null it runs immediately after the clock update
  /// (e.g. to consume the matched message atomically with the wake
  /// decision).
  void wait(Rank& r, const char* what, WaitGate gate, WaitCond cond,
            Action finalize = {});

  /// Aborts the current run with `code` from inside a perform body or rank
  /// context (used by the checker for collective mismatches, where letting
  /// the run continue would crash on mismatched payloads). Does not return:
  /// unwinds the calling rank via the same abort machinery as the watchdog.
  [[noreturn]] void abort_run(Rank& r, ErrorCode code, std::string reason);

 private:
  friend class Rank;

  struct AbortException {};

  enum class RankState : std::uint8_t { kReady, kRunning, kBlocked, kDone };

  // Scheduler state machine. The _locked suffix marks functions that may
  // only run while the caller holds the baton (or is run() itself between
  // fiber switches): exactly one context touches this state at a time, so
  // it needs no lock.
  void reset_run_state_locked(const std::function<void(Rank&)>& body);
  RunResult collect_result_locked();
  void set_state_locked(int id, RankState s);
  [[nodiscard]] int pick_min_ready_locked() const;
  /// Records the causal edge for a wait about to be re-queued: the satisfier
  /// is the rank currently holding the baton (granted_ — the perform or
  /// finalize that made the condition satisfiable).
  void note_wake_cause_locked(std::size_t waiter) {
    if (!opt_.spans) return;
    rank_cause_rank_[waiter] = granted_;
    rank_cause_t_[waiter] = rank_clock_[static_cast<std::size_t>(granted_)];
    // A satisfier inside a wait finalize has its own wait span still pending
    // (recorded after the finalize returns): count it, so the backward walk
    // resumes past that span instead of mistaking it for compute.
    rank_cause_nspans_[waiter] =
        spans_.rank_count(granted_) + (finalize_rank_ == granted_ ? 1u : 0u);
  }
  /// Appends the last few recorded spans of the first few blocked ranks to a
  /// deadlock/watchdog report (spans enabled only; terminal path).
  void append_span_tails_locked(std::ostringstream& os) const;
  void note_deadlock_locked();
  void note_body_error_locked(int id, const char* what);
  void wake_satisfied_locked();
  void check_abort_locked(const Rank& r) const;
  void check_watchdog_locked(const Rank& r);

  // Fiber execution.
  RunResult run_fibers(const std::function<void(Rank&)>& body);
  /// Fiber entry point; `rank` is the fiber's own Rank.
  static void fiber_entry(void* rank);
  void fiber_worker(Rank& r);
  void fiber_yield(Rank& r);
  void fiber_exit_run(Rank& r);
  void fiber_wait(Rank& r, const char* what, WaitGate gate, WaitCond cond,
                  Action finalize);
  /// Keep-baton test: under kIndexedHeap, would pushing the running caller
  /// with key `wake` and picking the heap minimum grant the caller itself?
  /// Always false under kLinearScan.
  [[nodiscard]] bool keeps_baton_locked(int id, simnet::TimeUs wake) const;
  void switch_fiber_locked(Fiber& from, Fiber& to) {
    ++counters_.switches;
    Fiber::switch_to(from, to);
  }

  // WaitGate registration (kIndexedHeap only; the linear scan ignores
  // gates). One channel per distinct counter pointer with live waiters;
  // gate_index_ maps counter pointer -> gates_ slot so registration is O(1)
  // even when thousands of p2p channels are gated at once.
  void register_gated_waiter_locked(int id, WaitGate gate);
  void wake_gated_locked();

  simnet::Platform platform_;
  int nranks_;
  EngineOptions opt_;
  std::unique_ptr<simnet::Fabric> fabric_;
  simnet::Trace trace_;
  simnet::Spans spans_;
  Metrics metrics_;
  check::Checker checker_;

  /// Cold identity, one flat array sized at construction, reset per run.
  std::unique_ptr<Rank[]> ranks_;

  // SoA rank hot fields, indexed by rank id (DESIGN.md §12). Exactly the
  // state the scheduler reads in its dispatch/wake loops; sized once at
  // construction, reset per run.
  std::vector<simnet::TimeUs> rank_clock_;
  std::vector<simnet::TimeUs> rank_wake_;  ///< scheduling priority while kReady
  std::vector<RankState> rank_state_;
  std::vector<WaitCond> rank_cond_;  ///< set only while parked in a wait
  std::vector<const char*> rank_what_;  ///< wait label for deadlock reports
  /// Causal wake edge per rank (spans enabled only, else unsized): who
  /// satisfied this rank's current wait, at what virtual time, and how many
  /// of the satisfier's spans preceded the action (SpanRecord::cause_*).
  /// Reset to -1 at each wait entry; written at re-queue time.
  std::vector<std::int32_t> rank_cause_rank_;
  std::vector<simnet::TimeUs> rank_cause_t_;
  std::vector<std::uint32_t> rank_cause_nspans_;

  /// run() in progress (reentrancy guard; atomic so a concurrent run()
  /// attempt from another thread is also rejected instead of racing).
  std::atomic<bool> running_{false};

  const std::function<void(Rank&)>* body_ = nullptr;

  // Persistent fiber contexts, one per rank in a flat array sized at
  // construction; their stacks are created by the first run(). main_fiber_
  // is the context of whichever thread is inside run(); rank fibers park
  // between runs suspended in fiber_exit_run().
  Fiber main_fiber_;
  std::unique_ptr<Fiber[]> fibers_;

  // Scheduler state, reset per run. Exactly the ids whose state is kReady
  // live in ready_queue_ (kIndexedHeap) or ready_ (kLinearScan), and
  // blocked_count_ counts the kBlocked ids under either scheduler.
  util::SortedRunQueue<simnet::TimeUs> ready_queue_;
  std::vector<int> ready_;
  int blocked_count_ = 0;
  // Gate channels (kIndexedHeap only): one per distinct monotone counter,
  // waiters ordered by (threshold, rank id) so equal thresholds drain in
  // ascending rank order. Every kBlocked rank sits in exactly one channel
  // and is re-evaluated only when its counter crosses its threshold. The
  // registry is cleared per run. A drained channel is not destroyed: it is
  // swapped past live_gates_ and keeps its waiter storage, and its index
  // node is parked in spare_gate_nodes_ for the next new counter, so
  // steady-state gate traffic allocates nothing.
  struct GateChannel {
    const std::uint64_t* counter = nullptr;
    /// Min-heap on (threshold, rank id) kept with std::push_heap/pop_heap
    /// and std::greater — std::priority_queue's exact order, but clear()
    /// keeps the capacity.
    std::vector<std::pair<std::uint64_t, int>> waiters;
  };
  using GateIndex = std::unordered_map<const std::uint64_t*, std::size_t>;
  std::vector<GateChannel> gates_;  ///< [0, live_gates_) are live
  std::size_t live_gates_ = 0;
  GateIndex gate_index_;
  std::vector<GateIndex::node_type> spare_gate_nodes_;
  EngineCounters counters_;
  int granted_ = -1;
  /// Rank currently executing a wait-finalize (engine quiescent; -1 outside
  /// finalizes). Only read by note_wake_cause_locked, see there.
  int finalize_rank_ = -1;
  int done_count_ = 0;
  bool abort_ = false;
  ErrorCode abort_code_ = ErrorCode::kDeadlock;
  std::string abort_reason_;
  std::string body_error_;
};

inline simnet::TimeUs Rank::now() const {
  return engine_->rank_clock_[static_cast<std::size_t>(id_)];
}

inline void Rank::advance(double dt_us) {
  MRL_CHECK(dt_us >= 0.0);
  engine_->rank_clock_[static_cast<std::size_t>(id_)] += dt_us;
}

inline void Rank::bump_epoch() {
  ++epoch_;
  engine_->metrics().on_sync(id_);
}

}  // namespace mrl::runtime
