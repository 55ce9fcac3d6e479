// Per-rank execution spans: every interval a rank spends inside a blocking
// wait or a blocking-advance communication operation, with the op kind, the
// peer, the payload bytes, the WaitGate threshold, and — for waits satisfied
// by another rank's action — the causal (rank, virtual time) edge the
// critical-path analyzer (critpath.hpp, DESIGN.md §14) walks backward.
//
// The engine records spans in global virtual-time order (one rank executes
// at a time), so the store's byte content is identical across schedulers
// and --jobs values. Disabled spans cost one branch per hook, exactly like
// Trace and Metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/time.hpp"
#include "simnet/trace.hpp"

namespace mrl::simnet {

enum class SpanKind : std::uint8_t {
  // Blocking waits, recorded by Engine::wait (kind derived from the label).
  kRecv,        ///< two-sided receive match ("recv")
  kUnapplied,   ///< MPI_Win wait for an unapplied put ("win.wait_any_unapplied")
  kFence,       ///< MPI_Win_fence rendezvous ("win.fence")
  kCollective,  ///< MPI collective rendezvous ("collective")
  kBarrier,     ///< SHMEM barrier/reduction rendezvous ("shmem.barrier_all")
  kSignalWait,  ///< SHMEM wait_until / signal wait ("shmem.wait_until*")
  kWait,        ///< any other Engine::wait label
  // Blocking-advance operations, recorded at their call sites: the rank's
  // clock advanced by a round trip / drain without parking in the engine.
  kSendDrain,   ///< MPI_Wait on a send until inject-free
  kGet,         ///< one-sided get round trip
  kAtomic,      ///< CAS / fetch-op round trip
  kFlush,       ///< MPI_Win flush / flush_local remote-completion drain
  kQuiet,       ///< shmem_quiet remote-completion drain
};

std::string to_string(SpanKind k);

/// Maps an Engine::wait label to its span kind (exact match; unknown labels
/// fall back to kWait).
SpanKind span_kind_from_wait_label(const char* label);

struct SpanRecord {
  std::int32_t rank = -1;
  /// Wait kinds: the rank whose action satisfied the wait (-1 if the wait
  /// never parked). Op kinds: the target/peer rank of the operation.
  std::int32_t peer = -1;
  SpanKind kind = SpanKind::kWait;
  TimeUs t_begin = 0;
  TimeUs t_end = 0;
  /// Wait kinds with peer >= 0: the satisfying rank's virtual time when it
  /// performed the action (its clock at the perform — for a message wake,
  /// the issue time of the message).
  TimeUs cause_t = 0;
  /// Span count of the satisfying rank at the wake, i.e. the number of its
  /// spans that precede the causal action — the backward walk's resume
  /// bound (guarantees termination).
  std::uint32_t cause_nspans = 0;
  std::uint64_t bytes = 0;
  std::uint64_t gate = 0;  ///< wait kinds: WaitGate threshold; op kinds: 0
  /// Op kinds: queueing / serialization share of the span (fabric
  /// decomposition); the remainder is latency.
  double q_us = 0;
  double s_us = 0;
};

using SpanStore = ChunkedStore<SpanRecord>;

/// Engine-owned span collector. The engine serializes all recording.
class Spans {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Clears the store and re-dimensions per-rank counts (start of each run).
  void reset(int nranks) {
    records_.clear();
    rank_count_.assign(static_cast<std::size_t>(nranks), 0);
  }

  /// Appends one span; zero-duration spans are dropped so the store only
  /// holds intervals that can carry attribution.
  void record(const SpanRecord& r) {
    if (!enabled_ || !(r.t_end > r.t_begin)) return;
    records_.push_back(r);
    ++rank_count_[static_cast<std::size_t>(r.rank)];
  }

  [[nodiscard]] const SpanStore& records() const { return records_; }

  /// Spans recorded so far for `rank` (feeds SpanRecord::cause_nspans).
  [[nodiscard]] std::uint32_t rank_count(int rank) const {
    return rank_count_[static_cast<std::size_t>(rank)];
  }

 private:
  bool enabled_ = false;
  SpanStore records_;
  std::vector<std::uint32_t> rank_count_;
};

}  // namespace mrl::simnet
