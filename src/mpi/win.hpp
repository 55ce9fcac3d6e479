// minimpi RMA windows.
//
// Semantics follow MPI-3 one-sided with the paper's usage pattern:
//   - put() is nonblocking; remote completion is observed via flush().
//   - Network delivery is FIFO per (origin, target) pair, so a signal put
//     issued after a data put lands after the data (the paper still flushes
//     in between, and we charge those ops).
//   - Window memory is NOT coherent with in-flight puts: arrived puts become
//     visible to the target only at fence()/sync()/wait_any_unapplied(),
//     mirroring MPI_Win_sync requirements in passive-target epochs.
//   - Atomics (compare_and_swap / fetch_add) linearize in issue order and
//     block the origin for o + atomic_L + hardware RTT (the paper's measured
//     CAS costs: 0.8 us Perlmutter GPU, 1.0/1.6 us Summit GPU intra/cross
//     socket, ~2 us CPU MPI).
// A window is an API facade over the shared RMA core (rma/rma.hpp), the
// same code minishmem runs: every operation, its bounds checks and its
// checker hooks live there. The window adds only MPI's one-sided LogGP
// costs and the kPut trace record of a get.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/types.hpp"
#include "rma/rma.hpp"
#include "simnet/trace.hpp"

namespace mrl::mpi {

class Comm;
class World;

/// Shared window state (one object per collective create_win call).
class Win {
 public:
  /// The `idx`-th window of `world` (the checker's "win<idx>").
  Win(World* world, int idx);

  Win(const Win&) = delete;
  Win& operator=(const Win&) = delete;

  // --- one-sided operations (called with the caller's Comm) ---

  /// Nonblocking put of `bytes` from `origin` into target's window at byte
  /// offset `target_off`. `kind` tags the trace record (kPut for data,
  /// kSignal for signal words).
  void put(Comm& c, const void* origin, std::uint64_t bytes, int target,
           std::uint64_t target_off,
           simnet::OpKind kind = simnet::OpKind::kPut);

  /// Blocking get (request/response round trip).
  void get(Comm& c, void* dest, std::uint64_t bytes, int target,
           std::uint64_t target_off);

  /// Remote completion of all my outstanding ops to `target` (or to all).
  void flush(Comm& c, int target);
  void flush_all(Comm& c) { flush(c, -1); }

  /// Local completion (origin buffers reusable).
  void flush_local(Comm& c, int target);
  void flush_local_all(Comm& c) { flush_local(c, -1); }

  /// Collective fence: barrier + all puts applied and remotely complete.
  void fence(Comm& c);

  /// Applies every arrived-but-unapplied put destined to me (MPI_Win_sync).
  /// Free of charge; poll loops account their own scan cost.
  void sync(Comm& c);

  /// Blocks until at least one unapplied put destined to me exists, then
  /// applies everything that has arrived by the wake time.
  void wait_any_unapplied(Comm& c);

  /// Blocking 8-byte compare-and-swap on target window memory; returns the
  /// old value. Linearizes in issue order.
  std::uint64_t compare_and_swap(Comm& c, std::uint64_t compare,
                                 std::uint64_t value, int target,
                                 std::uint64_t target_off);

  /// Blocking 8-byte atomic fetch-and-add; returns the old value.
  std::uint64_t fetch_add(Comm& c, std::uint64_t add, int target,
                          std::uint64_t target_off);

  /// Number of puts destined to `rank` that have not yet been applied
  /// (test/diagnostic hook).
  [[nodiscard]] std::size_t unapplied_count(int rank) const;

  /// Annotates a local load/store on the caller's own exposure region for
  /// the RMA checker (DESIGN.md §11). Free: no cost model, no clock change,
  /// and a single branch when the checker is off. A local read overlapping
  /// an arrived-but-unapplied put is the missing-MPI_Win_sync bug.
  void local_access(Comm& c, std::uint64_t off, std::uint64_t bytes,
                    bool is_write);

 private:
  friend class Comm;

  World* world_;
  /// Exposed regions, pending and outstanding puts, the fence rendezvous
  /// and the checker ids. create_win fills in the regions and registers
  /// the window with the checker.
  rma::Space space_;
};

/// Per-rank view of a window: the handle workload code holds.
class WinHandle {
 public:
  WinHandle() = default;
  WinHandle(Win* win, Comm* comm) : win_(win), comm_(comm) {}

  void put(const void* origin, std::uint64_t bytes, int target,
           std::uint64_t target_off,
           simnet::OpKind kind = simnet::OpKind::kPut) {
    win_->put(*comm_, origin, bytes, target, target_off, kind);
  }
  void get(void* dest, std::uint64_t bytes, int target,
           std::uint64_t target_off) {
    win_->get(*comm_, dest, bytes, target, target_off);
  }
  void flush(int target) { win_->flush(*comm_, target); }
  void flush_all() { win_->flush_all(*comm_); }
  void flush_local(int target) { win_->flush_local(*comm_, target); }
  void flush_local_all() { win_->flush_local_all(*comm_); }
  void fence() { win_->fence(*comm_); }
  void sync() { win_->sync(*comm_); }
  void wait_any_unapplied() { win_->wait_any_unapplied(*comm_); }
  std::uint64_t compare_and_swap(std::uint64_t compare, std::uint64_t value,
                                 int target, std::uint64_t target_off) {
    return win_->compare_and_swap(*comm_, compare, value, target, target_off);
  }
  std::uint64_t fetch_add(std::uint64_t add, int target,
                          std::uint64_t target_off) {
    return win_->fetch_add(*comm_, add, target, target_off);
  }
  /// RMA-checker annotations for direct loads/stores of my own exposure
  /// region (no-ops unless --check is on; see Win::local_access).
  void local_read(std::uint64_t off, std::uint64_t bytes) {
    win_->local_access(*comm_, off, bytes, /*is_write=*/false);
  }
  void local_write(std::uint64_t off, std::uint64_t bytes) {
    win_->local_access(*comm_, off, bytes, /*is_write=*/true);
  }

  [[nodiscard]] Win& win() { return *win_; }

 private:
  Win* win_ = nullptr;
  Comm* comm_ = nullptr;
};

}  // namespace mrl::mpi
