// minimpi: an MPI-shaped two-sided + one-sided communication runtime running
// on the msgroof virtual-time engine.
//
// The API mirrors the subset of MPI the paper's three workloads use:
// Isend/Irecv/Send/Recv (with ANY_SOURCE / ANY_TAG), Wait/Waitall, RMA
// windows with Put / fence / flush / flush_local / compare-and-swap /
// fetch-add, and Barrier. Every operation
// charges the issuing rank the per-op LogGP overhead `o` of its runtime
// flavor, so the paper's "one-sided needs 4 MPI operations per message"
// penalty is emergent, not hard-coded. RMA delivery and the barrier
// rendezvous are the shared RMA core (rma/rma.hpp) that minishmem uses too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mpi/types.hpp"
#include "rma/rma.hpp"
#include "runtime/engine.hpp"
#include "simnet/loggp.hpp"
#include "util/pair_map.hpp"

namespace mrl::mpi {

class Comm;
class Win;
class WinHandle;

/// One rank's unmatched messages: a FIFO queue per sending rank.
///
/// rma::clamp_fifo makes arrival non-decreasing in push order on every
/// (src, dst) pair, so the first tag-matching message in a source's queue is
/// that source's earliest match, and the match order — earliest arrival,
/// then lower source, then push order — needs no scan past the first
/// matching message of each queue (DESIGN.md §12). Only sources with a
/// pending message hold a queue, so an idle mailbox is one empty vector.
class Mailbox {
 public:
  /// Appends `m` to the queue of `m.src`; its arrival must not precede the
  /// previous push from the same source.
  void push(Msg m);
  /// The message a receive for (`src`, `tag`) matches (either may be
  /// kAnySource / kAnyTag), or nullptr. Valid until the next push or take.
  [[nodiscard]] const Msg* find(int src, int tag) const;
  /// Removes `m`, which find() returned since the last push or take.
  void take(const Msg* m);

 private:
  struct SourceQueue {
    int src = -1;
    std::size_t head = 0;  ///< msgs[0, head) are consumed
    std::vector<Msg> msgs;
  };
  std::vector<SourceQueue> queues_;  ///< non-empty queues, ascending src
};
static_assert(sizeof(Mailbox) == sizeof(std::vector<Msg>),
              "an idle mailbox must cost one vector header per rank");

/// Shared state for one communicator world: mailboxes, FIFO clamps,
/// the barrier rendezvous, and RMA windows. Created by World::run().
class World {
 public:
  /// Runs `body` as an SPMD program over `engine`'s ranks.
  static runtime::RunResult run(runtime::Engine& engine,
                                const std::function<void(Comm&)>& body);

  /// When false, message/put payloads are not captured or delivered (timing
  /// only) — used by bandwidth sweeps whose data content is irrelevant.
  bool capture_payloads = true;

 private:
  friend class Comm;
  friend class Win;

  explicit World(runtime::Engine& engine);

  runtime::Engine& engine_;
  int nranks_;
  // Per-dst mailboxes. An idle one is a single empty vector; per-source
  // queues are vectors with a head index, not deques, because an empty
  // libstdc++ deque preallocates ~half a KiB (~650 MB at a million ranks).
  std::vector<Mailbox> mailbox_;                  // per dst rank
  // Keyed (src, dst); sparse above PairMap::kDenseRanks so large worlds
  // don't materialize O(P^2) channel state. at() references are stable until
  // reset(), which lets fifo_seq_ entries double as WaitGate counters for
  // gated receives (DESIGN.md §12).
  util::PairMap<simnet::TimeUs> fifo_last_;
  util::PairMap<std::uint64_t> fifo_seq_;
  /// Total messages ever pushed into each rank's mailbox — the WaitGate
  /// counter for ANY_SOURCE receives (a specific-source receive gates on
  /// fifo_seq_.at(src, dst) instead).
  std::vector<std::uint64_t> inbox_pushes_;

  /// Barrier rendezvous (single communicator).
  rma::Rendezvous barrier_;
  /// RMA-checker channel for the barriers (lazily registered on the first
  /// barrier when the checker is on).
  int chk_chan_ = -1;

  std::vector<std::unique_ptr<Win>> windows_;
};

/// Per-rank communicator handle (rank-local view of the World).
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_->id(); }
  [[nodiscard]] int size() const { return world_->nranks_; }
  [[nodiscard]] simnet::TimeUs now() const { return rank_->now(); }

  /// Charges local compute virtual time (scaled up on fault-injected
  /// straggler ranks).
  void compute(double us) { rank_->advance(us * rank_->compute_scale()); }

  [[nodiscard]] runtime::Rank& rank_ctx() { return *rank_; }
  [[nodiscard]] World& world() { return *world_; }

  // --- two-sided ---
  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  Request irecv(void* buf, std::uint64_t bytes, int src = kAnySource,
                int tag = kAnyTag);
  void send(const void* buf, std::uint64_t bytes, int dst, int tag);
  RecvInfo recv(void* buf, std::uint64_t bytes, int src = kAnySource,
                int tag = kAnyTag);
  void wait(Request& req);
  void waitall(std::span<Request> reqs);

  // --- collectives (modeled cost: log2(P) rounds of (2o + L)) ---
  void barrier();

  // --- one-sided ---
  /// Collective window creation; every rank passes its local exposure
  /// region. Returns a per-rank handle to the same window.
  WinHandle create_win(void* base, std::uint64_t bytes);

 private:
  friend class World;
  friend class Win;
  Comm(World* world, runtime::Rank* rank) : world_(world), rank_(rank) {}

  [[nodiscard]] const simnet::LogGP& p2p_params() const;
  [[nodiscard]] const simnet::LogGP& rma_params() const;

  /// Aborts unless `src` is kAnySource or a rank and `tag` is kAnyTag or a
  /// tag isend accepts; shared by irecv and recv.
  void check_recv_selectors(int src, int tag) const;

  /// Blocks until a matching message exists, consumes it, copies the payload
  /// and returns its info; rank clock advances to the arrival time.
  RecvInfo match_and_consume(void* buf, std::uint64_t max_bytes, int src,
                             int tag);

  /// barrier() with checker signature `kind` (a string literal): create_win
  /// tags its internal barrier "win.create", so a user barrier on another
  /// rank that pairs with it aborts the run instead of passing silently.
  void barrier_kind(const char* kind);

  World* world_;
  runtime::Rank* rank_;
  int wins_created_ = 0;  ///< per-rank collective create_win counter
};

}  // namespace mrl::mpi
