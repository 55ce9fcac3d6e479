// The one-sided delivery core shared by minimpi windows (mpi::Win) and
// minishmem (shmem::World / Ctx), DESIGN.md §10 "The shared RMA core".
//
// Both runtimes model the same delivery: a put crosses the fabric, waits in
// a per-target queue until the target synchronizes, and completes at its
// origin on flush / quiet. They differ only in API and modelled costs, so
// the mechanisms live here once: the per-target DeliveryQueue and the
// Space that owns a window's or a heap's queues and outstanding puts, the
// generation-ring Rendezvous behind MPI collectives, fences and SHMEM
// barriers, and the get / atomic costs.
// Nothing here has options; callers keep their own checker-call order.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "runtime/engine.hpp"
#include "simnet/fabric.hpp"
#include "simnet/loggp.hpp"
#include "util/function_ref.hpp"
#include "util/pair_map.hpp"
#include "util/status.hpp"

namespace mrl::rma {

/// Whether [off, off + bytes) lies in a region of `size` bytes; no sum can
/// wrap around.
constexpr bool in_bounds(std::uint64_t off, std::uint64_t bytes,
                         std::uint64_t size) {
  return bytes <= size && off <= size - bytes;
}

/// Per-(src, dst) FIFO delivery: clamps `arrival` to be no earlier than the
/// channel's previous arrival, kept in `last`, and records it.
inline simnet::TimeUs clamp_fifo(util::PairMap<simnet::TimeUs>& last, int src,
                                 int dst, simnet::TimeUs arrival) {
  simnet::TimeUs& l = last.at(src, dst);
  l = std::max(l, arrival);
  return l;
}

inline constexpr std::uint64_t kNoSignal = ~0ULL;   ///< Delivery::sig_off
inline constexpr std::uint64_t kNoPayload = ~0ULL;  ///< Delivery::payload

/// One pending put. Its bytes live in the queue's payload buffer, so an
/// entry has a fixed size and a warm queue's pushes allocate nothing.
struct Delivery {
  std::uint64_t off = 0;              ///< target offset of the data
  std::uint64_t bytes = 0;            ///< data bytes (also when not captured)
  std::uint64_t sig_off = kNoSignal;  ///< target offset of a fused signal word
  /// Payload buffer offset of the captured data (when `captured`), then of
  /// the fused signal's 8-byte value (when there is one).
  std::uint64_t payload = kNoPayload;
  simnet::TimeUs arrival = 0;
  check::PutHandles chk;  ///< checker records, reported when applied
  bool captured = false;  ///< the data bytes are in the payload buffer
};
static_assert(sizeof(Delivery) <= 56, "a pending put must stay compact");

/// The puts issued toward one target and not yet applied to its memory:
/// arrived puts become visible only when the target applies them, in
/// (arrival, push) order. The pending entries are kept in that order as
/// they are pushed: a push moves its entry back past the entries that
/// arrive strictly later, which is none for an in-order push, and every
/// single-origin stream is in order (clamp_fifo). Applying is then taking
/// a prefix. The push counter is a WaitGate counter (DESIGN.md §12), so keep
/// queues in a container sized once.
class DeliveryQueue {
 public:
  /// Queues a put of `bytes` at `off` arriving at `arrival`; `data` holds
  /// them (nullptr: timing only). A fused signal sets the word at `sig_off`
  /// to `sig_val` right after the data lands.
  void push(std::uint64_t off, std::uint64_t bytes, const void* data,
            simnet::TimeUs arrival, check::PutHandles chk,
            std::uint64_t sig_off = kNoSignal, std::uint64_t sig_val = 0);

  /// Applies the puts that arrived by `cutoff` to the memory at `base` in
  /// (arrival, push) order, calls `on_applied` after each, and drops them.
  /// Returns the latest applied arrival (0 when none): with kTimeInf, the
  /// drain of a fence or barrier. `scratch` is the caller's buffer for
  /// compacting the payload bytes; its contents are not kept.
  simnet::TimeUs apply(simnet::TimeUs cutoff, std::byte* base,
                       util::FunctionRef<void(const Delivery&)> on_applied,
                       std::vector<std::byte>& scratch);

  /// Earliest pending arrival: the wake time of a wait for a delivery.
  [[nodiscard]] std::optional<double> earliest_arrival() const {
    if (pending_.empty()) return std::nullopt;
    return pending_.front().arrival;
  }
  /// Whether a put arrived by `now` but not applied writes any byte of
  /// [off, off + bytes), data or signal (the checker's missing-sync scan).
  [[nodiscard]] bool arrived_overlaps(std::uint64_t off, std::uint64_t bytes,
                                      simnet::TimeUs now) const;
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] std::size_t payload_bytes() const { return payload_.size(); }
  /// Gate satisfied by the next push: a blocked target's queue only grows.
  [[nodiscard]] runtime::WaitGate next_push() const {
    return runtime::WaitGate{&pushes_, pushes_ + 1};
  }

 private:
  /// Copies the pending bytes, in entry order, to the buffer's front once
  /// applied bytes outweigh them; an empty queue clears it (capacity stays).
  void compact_payload(std::vector<std::byte>& scratch);

  std::vector<Delivery> pending_;  ///< in (arrival, push) order
  std::vector<std::byte> payload_;
  std::uint64_t pushes_ = 0;
};
// Stencil runs hold one queue per rank per window, 100k of them.
static_assert(sizeof(DeliveryQueue) == 56, "a delivery queue must stay small");

/// The one-sided state of one address space — an MPI window or the SHMEM
/// symmetric heap — over the engine's ranks: each rank's exposed region and
/// delivery queue, and each origin's outstanding puts. Sized once, so the
/// queues' push counters can gate waits.
class Space {
 public:
  struct Region {
    std::byte* base = nullptr;
    std::uint64_t size = 0;
  };

  /// `fifo` holds the per-(src, dst) FIFO clamps, shared with the rest of
  /// the runtime's traffic.
  Space(runtime::Engine& eng, util::PairMap<simnet::TimeUs>& fifo);

  /// The checker's shadow space for this address space (-1: none).
  int chk_space = -1;

  [[nodiscard]] Region& region(int rank) {
    return region_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const DeliveryQueue& queue(int rank) const {
    return queues_[static_cast<std::size_t>(rank)];
  }

  /// Issues a put from `r` inside a perform body, after the caller's bounds
  /// checks and checker hook (which gave `chk`): costs the transfer of the
  /// data and a fused signal, clamps FIFO order, queues the delivery, notes
  /// its completion times at the origin and records a `kind` message.
  void put(runtime::Rank& r, int target, const simnet::LogGP& pp,
           std::uint64_t off, std::uint64_t bytes, const void* data,
           check::PutHandles chk, simnet::OpKind kind,
           std::uint64_t sig_off = kNoSignal, std::uint64_t sig_val = 0);

  /// Applies the puts that arrived at `rank` by `cutoff`, reporting each to
  /// the metrics and the checker; returns the latest applied arrival.
  simnet::TimeUs apply(int rank, simnet::TimeUs cutoff);

  /// Fence / barrier completion, run by the last entrant: applies every
  /// pending put and forgets every outstanding one. Returns `done`, or the
  /// latest arrival if that is later.
  simnet::TimeUs drain(simnet::TimeUs done);

  /// Blocks `r` until a put toward it has arrived, then applies what has
  /// arrived by the wake time. Gated on r's push counter (DESIGN.md §12):
  /// while r is blocked its queue only grows, since fences and barriers are
  /// collective.
  void wait_delivery(runtime::Rank& r, const char* what);

  /// flush / quiet (`remote`) or flush_local toward `target` (-1: all):
  /// charges `o_us`, then advances `r` to when its puts complete and tells
  /// the checker, in one perform body; records a `kind` span. Remote
  /// completion forgets the puts and starts a new epoch.
  void complete(runtime::Rank& r, double o_us, int target, bool remote,
                simnet::SpanKind kind);

 private:
  /// An origin's puts toward `target` since its last remote completion
  /// there: completion only ever waits for their latest times.
  struct Outstanding {
    int target = -1;
    simnet::TimeUs remote_done = 0;  ///< latest arrival
    simnet::TimeUs local_done = 0;   ///< latest injector release
  };

  runtime::Engine& eng_;
  util::PairMap<simnet::TimeUs>& fifo_;
  std::vector<Region> region_;
  std::vector<DeliveryQueue> queues_;
  /// Per origin, one record per target with puts outstanding.
  std::vector<std::vector<Outstanding>> outstanding_;
  std::vector<std::byte> scratch_;  ///< payload compaction buffer
};

/// Rounds of a dissemination-style rendezvous of `n` entrants: its
/// modelled cost is this many rounds of (2o + L [+ payload]).
inline double rendezvous_rounds(int n) {
  return std::ceil(std::log2(static_cast<double>(std::max(2, n))));
}

struct NoResult {};

/// A rendezvous of `n` entrants, one generation at a time. Each entrant
/// adds to acc() and enter()s inside a perform body; the last one seals
/// the generation, and all wait() for it. Sealed results sit in a small
/// generation-indexed ring, so a late waker of generation g still reads
/// its result after g + 1 has started.
template <typename Acc = NoResult>
class Rendezvous {
 public:
  Acc& acc() { return acc_; }

  /// Joins the open generation at `now` and returns it. The `n`-th entrant
  /// runs `on_last(latest entry time)`, which returns the completion time
  /// (a fence's or barrier's drain goes there), moves acc() into the
  /// result slot and advances the generation counter.
  std::uint64_t enter(
      int n, simnet::TimeUs now,
      util::FunctionRef<simnet::TimeUs(simnet::TimeUs)> on_last) {
    const std::uint64_t gen = gen_;
    max_enter_ = std::max(max_enter_, now);
    if (++entered_ == n) {
      Slot& slot = ring_[gen % ring_.size()];
      slot.gen = gen;
      slot.done_at = on_last(max_enter_);
      slot.result = std::exchange(acc_, Acc{});
      entered_ = 0;
      max_enter_ = 0;
      ++gen_;
    }
    return gen;
  }

  /// Blocks `r` until generation `gen` completes and returns its result;
  /// gated on the generation counter (runtime::WaitGate, DESIGN.md §10).
  const Acc& wait(runtime::Engine& eng, runtime::Rank& r, const char* what,
                  std::uint64_t gen) {
    const Slot& slot = ring_[gen % ring_.size()];
    eng.wait(r, what, runtime::WaitGate{&gen_, gen + 1},
             [&]() -> std::optional<double> {
               if (gen_ <= gen) return std::nullopt;
               MRL_CHECK_MSG(slot.gen == gen,
                             "rendezvous result slot overwritten");
               return slot.done_at;
             });
    return slot.result;
  }

 private:
  struct Slot {
    std::uint64_t gen = ~0ULL;
    simnet::TimeUs done_at = 0;
    Acc result{};
  };
  std::uint64_t gen_ = 0;
  int entered_ = 0;
  simnet::TimeUs max_enter_ = 0;
  Acc acc_{};
  std::array<Slot, 4> ring_{};
};

/// Origin-side cost of a blocking round trip, split for the profiler.
struct RoundTrip {
  double total_us = 0;  ///< issue to completion
  double q_us = 0;      ///< queueing, fault stalls and retry backoff
  double s_us = 0;      ///< serialization
  int drops = 0;        ///< fault-injected drops
};

/// A get of `bytes` from rank `target`: software latency `L_us` + hardware
/// RTT + payload stream-in, plus (under injected faults) stalls, retransmit
/// timeouts and retry backoff. Samples the faults: call in a perform body.
RoundTrip get_round_trip(runtime::Engine& eng, runtime::Rank& r, int target,
                         double L_us, std::uint64_t bytes);

/// Compare-and-swap `compare` -> `operand`, or fetch-and-add `operand`.
struct AtomicOp {
  std::uint64_t operand = 0;
  std::uint64_t compare = 0;
  bool is_cas = false;
};

/// One blocking 8-byte remote atomic from `r` on rank `target`. Charges
/// its overhead; in one perform body resolves the target word with `word`
/// (the caller's bounds check and checker hook), applies `op` to it —
/// atomics linearize in issue order on committed memory — and costs and
/// records the request/response transfer pair; then waits out the round
/// trip. Returns the word's previous value.
std::uint64_t atomic_rmw(runtime::Engine& eng, runtime::Rank& r, int target,
                         const simnet::LogGP& pp, AtomicOp op,
                         util::FunctionRef<std::byte*()> word);

}  // namespace mrl::rma
