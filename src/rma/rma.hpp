// The one-sided core shared by minimpi windows (mpi::Win) and minishmem
// (shmem::World / Ctx), DESIGN.md §10 "The shared RMA core".
//
// Both runtimes model the same primitives — put, get, atomic, flush /
// quiet, fence / barrier — and differ only in API and modelled costs, so
// each operation lives here once, with its bounds checks and checker hooks:
// the per-target DeliveryQueue, the Space that owns one window's or heap's
// state and runs the operations on it, and the generation-ring Rendezvous
// behind MPI barriers, fences and SHMEM barriers. Nothing here has
// options.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/checker.hpp"
#include "runtime/engine.hpp"
#include "simnet/fabric.hpp"
#include "simnet/loggp.hpp"
#include "util/function_ref.hpp"
#include "util/pair_map.hpp"
#include "util/pod_vector.hpp"
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

  util::PodVector<Delivery> pending_;  ///< in (arrival, push) order
  util::PodVector<std::byte> payload_;
  std::uint64_t pushes_ = 0;
};
// Stencil runs hold one queue per rank per window, 100k of them.
static_assert(sizeof(DeliveryQueue) == 56, "a delivery queue must stay small");

/// Rounds of a dissemination-style rendezvous of `n` entrants: its
/// modelled cost is this many rounds of (2o + L).
inline double rendezvous_rounds(int n) {
  return std::ceil(std::log2(static_cast<double>(std::max(2, n))));
}

/// The barrier of every rank behind MPI barriers and create_win, window
/// fences and SHMEM barriers, one generation at a time. A completed
/// generation's time sits in a small generation-indexed ring, so a late
/// waker of generation g still reads it after g + 1 has started.
class Rendezvous {
 public:
  /// Blocks `r` until every rank has joined: charges o, then joins the
  /// open generation in one perform body. The last entrant completes it at
  /// its latest entry + rendezvous_rounds(n) * (2o + L), or at what `drain`
  /// (a fence's or barrier's drain of the pending puts) returns for that
  /// time. A checker that is on then sees the entry, with this generation
  /// and whether it is the last, on the channel `channel()` returns
  /// (registering it on first use): after the drain, because applying
  /// reports put handles back to the checker, and the last entry completes
  /// the wave's clocks for every rank and clears the channel's space. A
  /// `kind` that differs from the other entrants' aborts the run. Nothing
  /// after the wait calls the checker. `what` names the wait; r's epoch
  /// ends.
  void join(runtime::Engine& eng, runtime::Rank& r, const simnet::LogGP& pp,
            const char* kind, const char* what,
            util::FunctionRef<int()> channel,
            util::FunctionRef<simnet::TimeUs(simnet::TimeUs)> drain = {});

 private:
  struct Slot {
    std::uint64_t gen = ~0ULL;
    simnet::TimeUs done_at = 0;
  };
  std::uint64_t gen_ = 0;  ///< the open generation; gates the waits
  int entered_ = 0;
  simnet::TimeUs max_enter_ = 0;
  std::array<Slot, 4> ring_{};
};

/// Origin-side cost of a blocking round trip, split for the profiler.
struct RoundTrip {
  simnet::TimeUs issued = 0;  ///< origin clock when the request left
  double total_us = 0;        ///< issue to completion
  double q_us = 0;            ///< queueing, fault stalls and retry backoff
  double s_us = 0;            ///< serialization
  int drops = 0;              ///< fault-injected drops
};

/// Compare-and-swap `compare` -> `operand`, or fetch-and-add `operand`.
struct AtomicOp {
  std::uint64_t operand = 0;
  std::uint64_t compare = 0;
  bool is_cas = false;
};

/// One address space — an MPI window or the SHMEM symmetric heap — over
/// the engine's ranks and the one-sided operations on it. It owns each
/// rank's exposed region and delivery queue, each origin's outstanding
/// puts, the fence / barrier rendezvous and the space's checker ids. Sized
/// once, so the queues' push counters can gate waits. Operations charge the
/// LogGP parameters the facade passes; put / get / atomic abort on a target
/// outside the engine's ranks or bytes outside its region, then tell the
/// checker, in the perform body that does the access.
class Space {
 public:
  struct Region {
    std::byte* base = nullptr;
    std::uint64_t size = 0;
  };

  /// `fifo` holds the per-(src, dst) FIFO clamps, shared with the rest of
  /// the runtime's traffic. The checker knows the space as `chk_name` and
  /// its fence / barrier channel as `sync_name`; the `index`-th of a kind
  /// (an MPI window) is `chk_name` + index and its channel that name +
  /// `sync_name`. Abort messages call the space `noun`.
  Space(runtime::Engine& eng, util::PairMap<simnet::TimeUs>& fifo,
        const char* chk_name, const char* sync_name, const char* noun,
        int index = -1);

  [[nodiscard]] Region& region(int rank) {
    return region_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const DeliveryQueue& queue(int rank) const {
    return queues_[static_cast<std::size_t>(rank)];
  }

  /// Registers the space and its sync channel with a checker that is on,
  /// inside a perform body. The operations that issue an access or enter a
  /// sync register on first use; an MPI window registers when created.
  void register_checker();

  /// Nonblocking put of `bytes` from `data` (nullptr: timing only) to `off`
  /// on `target`: charges o, then in one perform body costs the transfer,
  /// clamps FIFO order, queues the delivery, notes its completion times at
  /// the origin and records a `kind` message. `kind` gives the checker's
  /// put class: kPut data, kSignal an MPI signal put, kPutSignal a SHMEM
  /// fused put that sets the word at `sig_off` to `sig_val` after the data.
  void put(runtime::Rank& r, const simnet::LogGP& pp, int target,
           std::uint64_t off, std::uint64_t bytes, const void* data,
           simnet::OpKind kind, std::uint64_t sig_off = kNoSignal,
           std::uint64_t sig_val = 0);

  /// Blocking get of `bytes` at `off` on `target` into `dest`: charges o,
  /// L + hardware RTT + payload stream-in and (under injected faults)
  /// stalls, retransmit timeouts and retry backoff; records a kGet span.
  /// Reads committed memory, so arrived-but-unapplied puts are not visible.
  /// Returns the round trip for the facade's trace / metrics accounting.
  RoundTrip get(runtime::Rank& r, const simnet::LogGP& pp, int target,
                std::uint64_t off, std::uint64_t bytes, void* dest);

  /// One blocking 8-byte remote atomic at `off` on `target`. Charges its
  /// overhead; in one perform body applies `op` to the word — atomics
  /// linearize in issue order on committed memory — and costs and records
  /// the request/response transfer pair; then waits out the round trip.
  /// Returns the word's previous value.
  std::uint64_t atomic(runtime::Rank& r, const simnet::LogGP& pp, int target,
                       std::uint64_t off, AtomicOp op);

  /// Annotates a local load/store of r's own region for the checker, in a
  /// perform body of its own, so in virtual-time order: a read overlapping
  /// an arrived but unapplied put is the missing MPI_Win_sync / wait bug.
  /// Free, with no perform, when the checker is off; never changes r's
  /// clock.
  void local_access(runtime::Rank& r, std::uint64_t off, std::uint64_t bytes,
                    bool is_write);

  /// Tells the checker, inside a perform body, that `r` polls the signal
  /// words [off, off + bytes) of its own region: an atomic access, so data
  /// puts racing with the poll are flagged but a put_signal's own signal
  /// word never is.
  void note_signal_wait(runtime::Rank& r, std::uint64_t off,
                        std::uint64_t bytes);

  /// Applies the puts that arrived at `rank` by `cutoff`, reporting each to
  /// the metrics and the checker; returns the latest applied arrival.
  simnet::TimeUs apply(int rank, simnet::TimeUs cutoff);

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

  /// A fence or barrier of every rank: the Rendezvous join, whose last
  /// entrant drains every put, on the space's sync channel. A checker
  /// signature `kind` that differs from the other entrants' aborts the run.
  /// `what` names the wait.
  void sync_all(runtime::Rank& r, const simnet::LogGP& pp, const char* kind,
                const char* what);

 private:
  /// An origin's puts toward `target` since its last remote completion
  /// there: completion only ever waits for their latest times.
  struct Outstanding {
    int target = -1;
    simnet::TimeUs remote_done = 0;  ///< latest arrival
    simnet::TimeUs local_done = 0;   ///< latest injector release
  };

  /// put's perform body. A function of its own, so the hottest path reads
  /// its arguments from registers, not through a lambda's references.
  void put_locked(runtime::Rank& r, const simnet::LogGP& pp, int target,
                  std::uint64_t off, std::uint64_t bytes, const void* data,
                  simnet::OpKind kind, std::uint64_t sig_off,
                  std::uint64_t sig_val);

  /// The checker if it is on, after registering the space (on first use):
  /// for the hooks of new accesses and syncs.
  inline check::Checker* checker();
  /// The checker if it is on and the space registered: for the hooks that
  /// report on earlier accesses (apply, completion).
  inline check::Checker* registered_checker();

  /// Aborts unless `target` is a rank and [off, off + bytes) lies in its
  /// region, naming the access `op` in the message; returns the bytes.
  inline std::byte* at(int target, std::uint64_t off, std::uint64_t bytes,
                       const char* op);

  runtime::Engine& eng_;
  util::PairMap<simnet::TimeUs>& fifo_;
  std::vector<Region> region_;
  std::vector<DeliveryQueue> queues_;
  /// Per origin, one record per target with puts outstanding.
  std::vector<std::vector<Outstanding>> outstanding_;
  std::vector<std::byte> scratch_;  ///< payload compaction buffer
  Rendezvous sync_;                 ///< fences / barriers
  // Literal names, not strings: a window's size sets where glibc places it
  // among roofline_sweep's per-point allocations, and two string members
  // (a 328 B mpi::Win against 288 B) raised that workload's minor page
  // faults per pass by a third and its wall_s by 13-22%, with identical
  // simulated work.
  const char* chk_name_;
  const char* sync_name_;
  const char* noun_;
  int index_;
  int chk_space_ = -1;  ///< the checker's shadow space (-1: unregistered)
  int chk_chan_ = -1;   ///< its fence / barrier channel, which clears it
};

}  // namespace mrl::rma
