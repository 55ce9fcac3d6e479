#include "mpi/win.hpp"

#include <cstring>

#include "mpi/comm.hpp"
#include "util/status.hpp"

namespace mrl::mpi {

Win::Win(World* world, int nranks)
    : world_(world),
      nranks_(nranks),
      space_(world->engine_, world->fifo_last_) {}

void Win::put(Comm& c, const void* origin, std::uint64_t bytes, int target,
              std::uint64_t target_off, simnet::OpKind kind) {
  MRL_CHECK(target >= 0 && target < nranks_);
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);

  auto& eng = world_->engine_;
  eng.perform(c.rank_ctx(), [&] {
    const rma::Space::Region& tr = space_.region(target);
    MRL_CHECK_MSG(tr.base != nullptr, "put to unexposed window region");
    MRL_CHECK_MSG(rma::in_bounds(target_off, bytes, tr.size),
                  "put out of window bounds");
    check::PutHandles h;
    auto& chk = eng.checker();
    if (chk.enabled() && space_.chk_space >= 0) {
      h = chk.on_put(c.rank(), space_.chk_space, target, target_off, bytes,
                     kind == simnet::OpKind::kSignal ? check::PutClass::kSignal
                                                     : check::PutClass::kData,
                     0, c.now());
    }
    space_.put(c.rank_ctx(), target, pp, target_off, bytes,
               world_->capture_payloads ? origin : nullptr, h, kind);
  });
}

void Win::get(Comm& c, void* dest, std::uint64_t bytes, int target,
              std::uint64_t target_off) {
  MRL_CHECK(target >= 0 && target < nranks_);
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);
  auto& eng = world_->engine_;
  const simnet::TimeUs t0 = c.now();
  rma::RoundTrip rt;
  eng.perform(c.rank_ctx(), [&] {
    const rma::Space::Region& tr = space_.region(target);
    MRL_CHECK_MSG(tr.base != nullptr, "get from unexposed window region");
    MRL_CHECK_MSG(rma::in_bounds(target_off, bytes, tr.size),
                  "get out of window bounds");
    rt = rma::get_round_trip(eng, c.rank_ctx(), target, pp.L_us, bytes);
    // Reads current contents: arrived-but-unapplied puts are not visible,
    // matching our separate-memory RMA model.
    std::memcpy(dest, tr.base + target_off, bytes);
    auto& chk = eng.checker();
    if (chk.enabled() && space_.chk_space >= 0) {
      chk.on_get(c.rank(), space_.chk_space, target, target_off, bytes,
                 c.now());
    }
    // Gets keep their historical kPut trace encoding (changing it would
    // change every existing trace byte); is_get reclassifies for metrics.
    eng.record_msg(simnet::MsgRecord{c.rank(), target, bytes, c.now(),
                                     c.now() + rt.total_us,
                                     simnet::OpKind::kPut,
                                     c.rank_ctx().epoch(), rt.drops, rt.q_us,
                                     rt.s_us, -1},
                   /*is_get=*/true);
  });
  c.rank_ctx().advance(rt.total_us);
  eng.record_advance_span(c.rank_ctx(), simnet::SpanKind::kGet, t0, target,
                          bytes, rt.q_us, rt.s_us);
}

void Win::flush(Comm& c, int target) {
  space_.complete(c.rank_ctx(), c.rma_params().o_us, target, /*remote=*/true,
                  simnet::SpanKind::kFlush);
}

void Win::flush_all(Comm& c) { flush(c, -1); }

void Win::flush_local(Comm& c, int target) {
  space_.complete(c.rank_ctx(), c.rma_params().o_us, target, /*remote=*/false,
                  simnet::SpanKind::kFlush);
}

void Win::flush_local_all(Comm& c) { flush_local(c, -1); }

void Win::sync(Comm& c) {
  world_->engine_.perform(c.rank_ctx(),
                          [&] { space_.apply(c.rank(), c.now()); });
}

void Win::wait_any_unapplied(Comm& c) {
  space_.wait_delivery(c.rank_ctx(), "win.wait_any_unapplied");
}

std::uint64_t Win::atomic_rmw(Comm& c, int target, std::uint64_t target_off,
                              rma::AtomicOp op) {
  MRL_CHECK(target >= 0 && target < nranks_);
  auto& eng = world_->engine_;
  return rma::atomic_rmw(
      eng, c.rank_ctx(), target, c.rma_params(), op, [&] {
        const rma::Space::Region& tr = space_.region(target);
        MRL_CHECK_MSG(tr.base != nullptr, "atomic on unexposed window region");
        MRL_CHECK_MSG(rma::in_bounds(target_off, 8, tr.size),
                      "atomic out of window bounds");
        auto& chk = eng.checker();
        if (chk.enabled() && space_.chk_space >= 0) {
          chk.on_atomic(c.rank(), space_.chk_space, target, target_off,
                        c.now());
        }
        return tr.base + target_off;
      });
}

std::uint64_t Win::compare_and_swap(Comm& c, std::uint64_t compare,
                                    std::uint64_t value, int target,
                                    std::uint64_t target_off) {
  return atomic_rmw(c, target, target_off, rma::AtomicOp{value, compare, true});
}

std::uint64_t Win::fetch_add(Comm& c, std::uint64_t add, int target,
                             std::uint64_t target_off) {
  return atomic_rmw(c, target, target_off, rma::AtomicOp{add, 0, false});
}

void Win::fence(Comm& c) {
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);
  auto& eng = world_->engine_;
  const double cost =
      rma::rendezvous_rounds(nranks_) * (2.0 * pp.o_us + pp.L_us);

  std::uint64_t my_gen = 0;
  eng.perform(c.rank_ctx(), [&] {
    // Fence completion: every put is applied and remotely complete.
    my_gen = fence_.enter(nranks_, c.now(), [&](simnet::TimeUs max_enter) {
      return space_.drain(max_enter + cost);
    });
    auto& chk = eng.checker();
    if (chk.enabled() && chk_chan_ >= 0) {
      // After the drain above, so every pending put has reported its
      // application before the last entrant's space-clearing enter hook —
      // no shadow-record handle survives the clear.
      const check::CollEnter ce = chk.on_collective_enter(
          chk_chan_, c.rank(), check::CollSig{"win.fence", -1, 0}, c.now());
      if (!ce.ok) {
        eng.abort_run(c.rank_ctx(), ErrorCode::kFailedPrecondition,
                      chk.report());
      }
    }
  });
  fence_.wait(eng, c.rank_ctx(), "win.fence", my_gen);
  auto& chk = eng.checker();
  if (chk.enabled() && chk_chan_ >= 0) {
    chk.on_collective_complete(chk_chan_, c.rank(), my_gen);
  }
  c.rank_ctx().bump_epoch();
}

std::size_t Win::unapplied_count(int rank) const {
  return space_.queue(rank).size();
}

void Win::local_access(Comm& c, std::uint64_t off, std::uint64_t bytes,
                       bool is_write) {
  auto& chk = world_->engine_.checker();
  if (!chk.enabled() || space_.chk_space < 0) return;
  // Rank bodies execute one at a time and all window state mutates inside
  // perform bodies, so reading the queue directly here is race-free and
  // deterministic; no perform, no clock movement, no cost.
  const bool unapplied =
      space_.queue(c.rank()).arrived_overlaps(off, bytes, c.now());
  chk.on_local(c.rank(), space_.chk_space, off, bytes, is_write, unapplied,
               c.now());
}

}  // namespace mrl::mpi
