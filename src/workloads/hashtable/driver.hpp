// The insert phase the three hashtable variants share. Internal to the
// workload: callers use the run_* functions.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"
#include "util/function_ref.hpp"
#include "workloads/hashtable/hashtable.hpp"

namespace mrl::workloads::hashtable {

/// Everything but the insert loop. A variant runs its world on engine(),
/// exposes each rank's part() (MPI windows, the symmetric heap, or nothing)
/// and calls run() with its barrier and its insert loop, which issues the
/// rank's n_local() inserts and completes them; finish() assembles the
/// Result.
class Driver {
 public:
  using BarrierFn = util::FunctionRef<void()>;
  using InsertsFn = util::FunctionRef<void()>;

  /// One insert of the generated stream: its key and where it belongs.
  struct Insert {
    std::uint64_t key;
    Placement at;
  };

  /// Sizes the overflow heap for the exact worst-case occupancy of the
  /// insert stream (grow-only: placement and traffic of fitting runs are
  /// unchanged).
  Driver(const simnet::Platform& platform, int nranks, const Config& cfg)
      : cfg_(with_sized_overflow(cfg, nranks)),
        nranks_(nranks),
        eng_(platform, nranks),
        n_local_(inserts_per_rank(cfg_, nranks)),
        parts_(static_cast<std::size_t>(nranks), Partition(cfg_)),
        collisions_(static_cast<std::size_t>(nranks), 0) {}

  [[nodiscard]] runtime::Engine& engine() { return eng_; }
  /// The effective config (overflow heap sized).
  [[nodiscard]] const Config& cfg() const { return cfg_; }
  [[nodiscard]] std::uint64_t n_local() const { return n_local_; }
  [[nodiscard]] Partition& part(int rank) {
    return parts_[static_cast<std::size_t>(rank)];
  }
  /// Rank `rank`'s k-th insert, k < n_local().
  [[nodiscard]] Insert insert(int rank, std::uint64_t k) const {
    const std::uint64_t key =
        key_for(cfg_.seed, static_cast<std::uint64_t>(rank) * n_local_ + k);
    return {key, place(key, nranks_, cfg_.slots_per_rank)};
  }
  /// An insert of rank `rank` went to overflow.
  void collided(int rank) { ++collisions_[static_cast<std::size_t>(rank)]; }
  /// An insert found its owner's overflow heap full. Unreachable for the
  /// generated stream (the heap is sized for it); a hand-built Config
  /// degrades to kResourceExhausted instead of an abort.
  void exhausted() { exhausted_ = true; }

  /// Rank `r`'s timed region: barrier, the insert loop, barrier.
  void run(runtime::Rank& r, BarrierFn barrier, InsertsFn inserts) {
    barrier();
    if (r.id() == 0) t0_ = r.now();
    inserts();
    barrier();
    if (r.id() == 0) t1_ = r.now();
  }

  /// The Result of `run` (checked against the key stream when the run and
  /// every insert succeeded); its message stats count `data` records.
  Result finish(const runtime::RunResult& run, simnet::OpKind data) {
    const auto actual = n_local_ * static_cast<std::uint64_t>(nranks_);
    Result out;
    out.status = run.status;
    if (exhausted_ && out.status.is_ok()) {
      out.status =
          Status(ErrorCode::kResourceExhausted, "overflow heap exhausted");
    }
    out.time_us = t1_ - t0_;
    out.inserted = actual;
    if (out.time_us > 0) {
      out.updates_per_sec = static_cast<double>(actual) / (out.time_us * 1e-6);
    }
    for (std::uint64_t v : collisions_) out.collisions += v;
    out.verified = cfg_.verify && out.status.is_ok();
    if (out.verified) {
      out.verify_ok = verify_partitions(parts_, cfg_, actual).is_ok();
    }
    out.msgs = eng_.trace().summarize(data);
    return out;
  }

 private:
  const Config cfg_;
  const int nranks_;
  runtime::Engine eng_;
  const std::uint64_t n_local_;
  std::vector<Partition> parts_;
  std::vector<std::uint64_t> collisions_;  ///< per rank
  bool exhausted_ = false;
  double t0_ = 0, t1_ = 0;
};

}  // namespace mrl::workloads::hashtable
