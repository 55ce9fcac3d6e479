// minishmem: an NVSHMEM-shaped one-sided runtime on the msgroof engine.
//
// PEs own slices of a symmetric heap; senders write directly into remote
// slices with nonblocking put-with-signal (ONE operation per message — the
// key cost asymmetry vs. 4-op one-sided MPI), receivers block on signal
// words with wait_until / wait_until_all / wait_until_any, and inserts use
// remote atomics. Modeled after the paper's NVSHMEM usage:
//   nvshmem_double_put_signal_nbi, nvshmem_uint64_wait_until_{all,any},
//   nvshmem_quiet, atomic compare-and-swap.
// Ctx is an API facade over the shared RMA core (rma/rma.hpp), the same
// code minimpi windows run: put (a fused signal rides in the same delivery
// as its data), get, atomics, quiet, the barrier and their bounds checks
// and checker hooks live there. minishmem adds only SHMEM's LogGP costs,
// the signal waits, symmetric allocation and the metrics-only get count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rma/rma.hpp"
#include "runtime/engine.hpp"
#include "simnet/loggp.hpp"
#include "simnet/trace.hpp"
#include "util/function_ref.hpp"
#include "util/pair_map.hpp"
#include "util/zero_bytes.hpp"

namespace mrl::shmem {

class Ctx;

/// Typed offset into the symmetric heap: the same offset is valid on every
/// PE (the defining property of SHMEM symmetric allocation).
template <typename T>
struct Sym {
  std::uint64_t offset = 0;

  [[nodiscard]] Sym<T> at(std::uint64_t index) const {
    return Sym<T>{offset + index * sizeof(T)};
  }
};

/// Shared world state: per-PE heap arenas, pending deliveries, rendezvous.
class World {
 public:
  struct Options {
    std::uint64_t heap_bytes = 64ull << 20;  ///< symmetric heap per PE
    /// When false, put payloads are not captured/applied (timing only) —
    /// used by bandwidth sweeps whose data content is irrelevant.
    bool capture_payloads = true;
  };

  /// Runs `body` as an SPMD SHMEM program over the engine's ranks (PEs).
  static runtime::RunResult run(runtime::Engine& engine,
                                const std::function<void(Ctx&)>& body,
                                Options opt);
  static runtime::RunResult run(runtime::Engine& engine,
                                const std::function<void(Ctx&)>& body) {
    return run(engine, body, Options{});
  }

 private:
  friend class Ctx;

  World(runtime::Engine& engine, Options opt);

  runtime::Engine& engine_;
  Options opt_;
  int npes_;
  std::vector<util::ZeroBytes> heap_;               // per PE arena
  std::uint64_t heap_used_ = 0;                     // symmetric bump pointer
  // Allocation log: the k-th collective allocate() on every PE must return
  // the same offset; entries are (bytes, offset).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> alloc_log_;
  // Keyed (src, dst); sparse above PairMap::kDenseRanks so large worlds
  // don't materialize O(P^2) channel state.
  util::PairMap<simnet::TimeUs> fifo_last_;
  /// The heap slices as regions, pending and outstanding deliveries, the
  /// barrier_all rendezvous and the checker ids. The checker
  /// resets at engine-run start, after World construction, so the heap
  /// registers with it on first use.
  rma::Space space_;
};

/// Per-PE handle (the `Ctx&` each PE body receives).
class Ctx {
 public:
  [[nodiscard]] int pe() const { return rank_->id(); }
  [[nodiscard]] int n_pes() const { return world_->npes_; }
  [[nodiscard]] simnet::TimeUs now() const { return rank_->now(); }
  /// Charges local compute virtual time (scaled up on fault-injected
  /// straggler ranks).
  void compute(double us) { rank_->advance(us * rank_->compute_scale()); }
  [[nodiscard]] runtime::Rank& rank_ctx() { return *rank_; }

  /// Collective symmetric allocation (all PEs must call in the same order
  /// with the same size). Memory is zero-initialized.
  template <typename T>
  Sym<T> allocate(std::uint64_t count) {
    return Sym<T>{alloc_bytes(count * sizeof(T), alignof(T))};
  }

  /// Local address of a symmetric object on this PE.
  template <typename T>
  [[nodiscard]] T* local(Sym<T> s) {
    return reinterpret_cast<T*>(heap_base() + s.offset);
  }
  template <typename T>
  [[nodiscard]] const T* local(Sym<T> s) const {
    return reinterpret_cast<const T*>(heap_base() + s.offset);
  }

  /// Nonblocking put of `count` elements into `dest` on `target_pe`.
  template <typename T>
  void put_nbi(Sym<T> dest, const T* src, std::uint64_t count, int target_pe) {
    put_bytes_nbi(dest.offset, src, count * sizeof(T), target_pe,
                  /*sig_off=*/0, /*sig_val=*/0, /*has_signal=*/false);
  }

  /// Fused put-with-signal: data lands, then `sig` is set to `sig_val`,
  /// visible atomically to waits on the target. ONE runtime operation.
  template <typename T>
  void put_signal_nbi(Sym<T> dest, const T* src, std::uint64_t count,
                      Sym<std::uint64_t> sig, std::uint64_t sig_val,
                      int target_pe) {
    put_bytes_nbi(dest.offset, src, count * sizeof(T), target_pe, sig.offset,
                  sig_val, /*has_signal=*/true);
  }

  /// Blocks until my local `sig` equals `val`.
  void wait_until(Sym<std::uint64_t> sig, std::uint64_t val);

  /// Blocks until some unmasked (status[i]==0) entry of sigs[0..n) equals
  /// `val`; returns its index. Mirrors nvshmem_uint64_wait_until_any.
  std::size_t wait_until_any(Sym<std::uint64_t> sigs, std::size_t n,
                             const std::int32_t* status, std::uint64_t val);

  /// Blocks until every unmasked entry equals `val`.
  void wait_until_all(Sym<std::uint64_t> sigs, std::size_t n,
                      const std::int32_t* status, std::uint64_t val);

  /// Remote completion of all my outstanding nonblocking ops.
  void quiet();

  /// Blocking remote atomics (return the previous value).
  std::uint64_t atomic_compare_swap(Sym<std::uint64_t> target,
                                    std::uint64_t compare, std::uint64_t value,
                                    int target_pe);
  std::uint64_t atomic_fetch_add(Sym<std::uint64_t> target, std::uint64_t add,
                                 int target_pe);

  /// Blocking get (round trip).
  template <typename T>
  void get(T* dest, Sym<T> src, std::uint64_t count, int target_pe) {
    get_bytes(dest, src.offset, count * sizeof(T), target_pe);
  }

  void barrier_all();

  /// RMA-checker annotations for direct loads/stores of my own
  /// symmetric-heap memory (free no-ops unless --check is on). A read
  /// overlapping an arrived-but-unapplied delivery is the missing-wait bug.
  template <typename T>
  void local_read(Sym<T> s, std::uint64_t count = 1) {
    local_access(s.offset, count * sizeof(T), /*is_write=*/false);
  }
  template <typename T>
  void local_write(Sym<T> s, std::uint64_t count = 1) {
    local_access(s.offset, count * sizeof(T), /*is_write=*/true);
  }

 private:
  friend class World;
  Ctx(World* world, runtime::Rank* rank) : world_(world), rank_(rank) {}

  [[nodiscard]] std::byte* heap_base() {
    return world_->heap_[static_cast<std::size_t>(pe())].data();
  }
  [[nodiscard]] const std::byte* heap_base() const {
    return world_->heap_[static_cast<std::size_t>(pe())].data();
  }

  [[nodiscard]] const simnet::LogGP& params() const;

  std::uint64_t alloc_bytes(std::uint64_t bytes, std::uint64_t align);
  void put_bytes_nbi(std::uint64_t dest_off, const void* src,
                     std::uint64_t bytes, int target_pe, std::uint64_t sig_off,
                     std::uint64_t sig_val, bool has_signal);
  void get_bytes(void* dest, std::uint64_t src_off, std::uint64_t bytes,
                 int target_pe);

  /// Shared wait loop of the signal waits on the words [off, off + bytes):
  /// tells the checker of the wait in its first perform body, then
  /// re-applies arrivals until `pred` holds locally.
  void wait_local(const char* what, std::uint64_t off, std::uint64_t bytes,
                  util::FunctionRef<bool()> pred);

  void local_access(std::uint64_t off, std::uint64_t bytes, bool is_write) {
    world_->space_.local_access(*rank_, off, bytes, is_write);
  }

  World* world_;
  runtime::Rank* rank_;
  int allocs_done_ = 0;
};

}  // namespace mrl::shmem
