#include "shmem/shmem.hpp"

#include <cstring>

#include "util/status.hpp"

namespace mrl::shmem {

World::World(runtime::Engine& engine, Options opt)
    : engine_(engine),
      opt_(opt),
      npes_(engine.nranks()),
      space_(engine, fifo_last_) {
  heap_.reserve(static_cast<std::size_t>(npes_));
  for (int pe = 0; pe < npes_; ++pe) {
    heap_.emplace_back(opt_.heap_bytes);
    space_.region(pe) =
        rma::Space::Region{heap_.back().data(), opt_.heap_bytes};
  }
  fifo_last_.reset(npes_);
}

runtime::RunResult World::run(runtime::Engine& engine,
                              const std::function<void(Ctx&)>& body,
                              Options opt) {
  World world(engine, opt);
  return engine.run([&world, &body](runtime::Rank& rank) {
    Ctx ctx(&world, &rank);
    body(ctx);
  });
}

void World::chk_register_locked() {
  auto& chk = engine_.checker();
  if (!chk.enabled() || space_.chk_space >= 0) return;
  space_.chk_space = chk.add_space("symheap");
  // barrier_all implies quiet(): its completion clears the symheap's access
  // history, so races are only reported within one barrier interval.
  chk_chan_ = chk.add_channel("shmem.world", space_.chk_space);
}

const simnet::LogGP& Ctx::params() const {
  return world_->engine_.platform().params(simnet::Runtime::kShmem);
}

std::uint64_t Ctx::alloc_bytes(std::uint64_t bytes, std::uint64_t align) {
  // Collective symmetric allocation: the k-th call on every PE returns the
  // same offset. The first PE to reach index k advances the shared bump
  // pointer; the others verify the size and reuse the logged offset.
  std::uint64_t offset = 0;
  const int my_index = allocs_done_++;
  world_->engine_.perform(*rank_, [&] {
    auto& log = world_->alloc_log_;
    if (my_index == static_cast<int>(log.size())) {
      std::uint64_t off = world_->heap_used_;
      off = (off + align - 1) / align * align;
      MRL_CHECK_MSG(
          off + bytes <= world_->opt_.heap_bytes,
          "symmetric heap exhausted (raise World::Options::heap_bytes)");
      world_->heap_used_ = off + bytes;
      log.emplace_back(bytes, off);
    }
    MRL_CHECK_MSG(my_index < static_cast<int>(log.size()),
                  "shmem allocate() calls out of order across PEs");
    const auto& rec = log[static_cast<std::size_t>(my_index)];
    MRL_CHECK_MSG(rec.first == bytes,
                  "asymmetric shmem allocation (PEs disagree on size)");
    offset = rec.second;
  });
  return offset;
}

void Ctx::put_bytes_nbi(std::uint64_t dest_off, const void* src,
                        std::uint64_t bytes, int target_pe,
                        std::uint64_t sig_off, std::uint64_t sig_val,
                        bool has_signal) {
  MRL_CHECK(target_pe >= 0 && target_pe < n_pes());
  const simnet::LogGP& pp = params();
  rank_->advance(pp.o_us);  // ONE operation per message
  auto& eng = world_->engine_;
  eng.perform(*rank_, [&] {
    const std::uint64_t heap = world_->opt_.heap_bytes;
    MRL_CHECK_MSG(rma::in_bounds(dest_off, bytes, heap),
                  "put outside symmetric heap");
    MRL_CHECK_MSG(!has_signal || rma::in_bounds(sig_off, 8, heap),
                  "signal outside symmetric heap");
    check::PutHandles h;
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      h = chk.on_put(pe(), world_->space_.chk_space, target_pe, dest_off, bytes,
                     has_signal ? check::PutClass::kFused
                                : check::PutClass::kData,
                     sig_off, rank_->now());
    }
    world_->space_.put(
        *rank_, target_pe, pp, dest_off, bytes,
        world_->opt_.capture_payloads ? src : nullptr, h,
        has_signal ? simnet::OpKind::kPutSignal : simnet::OpKind::kPut,
        has_signal ? sig_off : rma::kNoSignal, sig_val);
  });
}

void Ctx::get_bytes(void* dest, std::uint64_t src_off, std::uint64_t bytes,
                    int target_pe) {
  MRL_CHECK(target_pe >= 0 && target_pe < n_pes());
  const simnet::LogGP& pp = params();
  rank_->advance(pp.o_us);
  auto& eng = world_->engine_;
  const simnet::TimeUs t0 = rank_->now();
  rma::RoundTrip rt;
  eng.perform(*rank_, [&] {
    MRL_CHECK_MSG(rma::in_bounds(src_off, bytes, world_->opt_.heap_bytes),
                  "get outside symmetric heap");
    rt = rma::get_round_trip(eng, *rank_, target_pe, pp.L_us, bytes);
    std::memcpy(
        dest,
        world_->heap_[static_cast<std::size_t>(target_pe)].data() + src_off,
        bytes);
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      chk.on_get(pe(), world_->space_.chk_space, target_pe, src_off, bytes,
                 rank_->now());
    }
  });
  rank_->advance(rt.total_us);
  // SHMEM gets were never traced (and adding a record would change existing
  // trace/CSV bytes), so they are counted through the metrics-only hook.
  eng.metrics().on_get(pe(), bytes);
  eng.record_advance_span(*rank_, simnet::SpanKind::kGet, t0, target_pe,
                          bytes, rt.q_us, rt.s_us);
}

void Ctx::wait_local(const char* what, util::FunctionRef<bool()> pred) {
  for (;;) {
    bool ok = false;
    world_->engine_.perform(*rank_, [&] {
      world_->space_.apply(pe(), rank_->now());
      ok = pred();
    });
    if (ok) {
      rank_->bump_epoch();
      return;
    }
    world_->space_.wait_delivery(*rank_, what);
  }
}

// Marks the watched signal words as an atomic-class read on the waiting PE
// (so data puts racing with the poll are flagged, but the paired put_signal's
// own signal word never self-flags). Exactly one rank executes at a time, so
// touching the checker from rank context is race-free and deterministic.
void Ctx::note_signal_wait(std::uint64_t off, std::uint64_t bytes) {
  auto& chk = world_->engine_.checker();
  if (!chk.enabled()) return;
  world_->chk_register_locked();
  chk.on_signal_wait(pe(), world_->space_.chk_space, off, bytes, now());
}

void Ctx::wait_until(Sym<std::uint64_t> sig, std::uint64_t val) {
  note_signal_wait(sig.offset, 8);
  const std::uint64_t* p = local(sig);
  wait_local("shmem.wait_until", [p, val] { return *p == val; });
}

std::size_t Ctx::wait_until_any(Sym<std::uint64_t> sigs, std::size_t n,
                                const std::int32_t* status,
                                std::uint64_t val) {
  note_signal_wait(sigs.offset, n * 8);
  const std::uint64_t* p = local(sigs);
  std::size_t found = n;
  wait_local("shmem.wait_until_any", [&, p, val] {
    for (std::size_t i = 0; i < n; ++i) {
      if (status != nullptr && status[i] != 0) continue;
      if (p[i] == val) {
        found = i;
        return true;
      }
    }
    return false;
  });
  MRL_CHECK(found < n);
  return found;
}

void Ctx::wait_until_all(Sym<std::uint64_t> sigs, std::size_t n,
                         const std::int32_t* status, std::uint64_t val) {
  note_signal_wait(sigs.offset, n * 8);
  const std::uint64_t* p = local(sigs);
  wait_local("shmem.wait_until_all", [&, p, val] {
    for (std::size_t i = 0; i < n; ++i) {
      if (status != nullptr && status[i] != 0) continue;
      if (p[i] != val) return false;
    }
    return true;
  });
}

void Ctx::quiet() {
  world_->space_.complete(*rank_, params().o_us, /*target=*/-1,
                          /*remote=*/true, simnet::SpanKind::kQuiet);
}

std::uint64_t Ctx::atomic_rmw(std::uint64_t target_off, rma::AtomicOp op,
                              int target_pe) {
  MRL_CHECK(target_pe >= 0 && target_pe < n_pes());
  auto& eng = world_->engine_;
  return rma::atomic_rmw(eng, *rank_, target_pe, params(), op, [&] {
    MRL_CHECK_MSG(rma::in_bounds(target_off, 8, world_->opt_.heap_bytes),
                  "atomic outside symmetric heap");
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      chk.on_atomic(pe(), world_->space_.chk_space, target_pe, target_off,
                    rank_->now());
    }
    return world_->heap_[static_cast<std::size_t>(target_pe)].data() +
           target_off;
  });
}

std::uint64_t Ctx::atomic_compare_swap(Sym<std::uint64_t> target,
                                       std::uint64_t compare,
                                       std::uint64_t value, int target_pe) {
  return atomic_rmw(target.offset, rma::AtomicOp{value, compare, true},
                    target_pe);
}

std::uint64_t Ctx::atomic_fetch_add(Sym<std::uint64_t> target,
                                    std::uint64_t add, int target_pe) {
  return atomic_rmw(target.offset, rma::AtomicOp{add, 0, false}, target_pe);
}

void Ctx::barrier_all() { sum_all_kind("barrier_all", 0.0); }

double Ctx::sum_all(double v) { return sum_all_kind("sum_all", v); }

double Ctx::sum_all_kind(const char* kind, double v) {
  const simnet::LogGP& pp = params();
  rank_->advance(pp.o_us);
  auto& eng = world_->engine_;
  const double cost =
      rma::rendezvous_rounds(n_pes()) * (2.0 * pp.o_us + pp.L_us);

  std::uint64_t my_gen = 0;
  eng.perform(*rank_, [&] {
    world_->barrier_.acc() += v;
    my_gen = world_->barrier_.enter(
        n_pes(), rank_->now(), [&](simnet::TimeUs max_enter) {
          // barrier also implies quiet(): everything lands before it
          // completes.
          return world_->space_.drain(max_enter + cost);
        });
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      // Enter AFTER the last entrant's drain above: applying reports
      // put handles back to the checker, and the channel's space-clear on
      // the final entry would otherwise dangle them.
      const check::CollEnter ce = chk.on_collective_enter(
          world_->chk_chan_, pe(), check::CollSig{kind, -1, 0}, rank_->now());
      if (!ce.ok) {
        // A kind-blind rendezvous pairing barrier_all with sum_all would
        // silently corrupt the reduction; abort with the diagnostic.
        eng.abort_run(*rank_, ErrorCode::kFailedPrecondition, chk.report());
      }
    }
  });
  const double sum =
      world_->barrier_.wait(eng, *rank_, "shmem.barrier_all", my_gen);
  auto& chk = eng.checker();
  if (chk.enabled() && world_->chk_chan_ >= 0) {
    chk.on_collective_complete(world_->chk_chan_, pe(), my_gen);
  }
  rank_->bump_epoch();
  eng.metrics().on_collective(pe());
  return sum;
}

void Ctx::local_access(std::uint64_t off, std::uint64_t bytes, bool is_write) {
  auto& chk = world_->engine_.checker();
  if (!chk.enabled() || world_->space_.chk_space < 0) return;
  // A read overlapping a delivery that has arrived but was not yet applied
  // on this PE means the program skipped the wait_until/barrier that would
  // have drained it — exactly the missing-synchronization bug. Exactly one
  // rank executes at a time, so the direct scan is race-free and
  // deterministic.
  const bool unapplied =
      world_->space_.queue(pe()).arrived_overlaps(off, bytes, now());
  chk.on_local(pe(), world_->space_.chk_space, off, bytes, is_write, unapplied,
               now());
}

}  // namespace mrl::shmem
