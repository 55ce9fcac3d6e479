#include "mpi/win.hpp"

#include "mpi/comm.hpp"

namespace mrl::mpi {

Win::Win(World* world, int idx)
    : world_(world),
      space_(world->engine_, world->fifo_last_, "win", ".fence", "window",
             idx) {}

void Win::put(Comm& c, const void* origin, std::uint64_t bytes, int target,
              std::uint64_t target_off, simnet::OpKind kind) {
  space_.put(c.rank_ctx(), c.rma_params(), target, target_off, bytes,
             world_->capture_payloads ? origin : nullptr, kind);
}

void Win::get(Comm& c, void* dest, std::uint64_t bytes, int target,
              std::uint64_t target_off) {
  const rma::RoundTrip rt = space_.get(c.rank_ctx(), c.rma_params(), target,
                                       target_off, bytes, dest);
  // Gets keep their historical kPut trace encoding (changing it would
  // change every existing trace byte); is_get reclassifies for metrics.
  world_->engine_.record_msg(
      simnet::MsgRecord{c.rank(), target, bytes, rt.issued,
                        rt.issued + rt.total_us, simnet::OpKind::kPut,
                        c.rank_ctx().epoch(), rt.drops, rt.q_us, rt.s_us, -1},
      /*is_get=*/true);
}

void Win::flush(Comm& c, int target) {
  space_.complete(c.rank_ctx(), c.rma_params().o_us, target, /*remote=*/true,
                  simnet::SpanKind::kFlush);
}

void Win::flush_local(Comm& c, int target) {
  space_.complete(c.rank_ctx(), c.rma_params().o_us, target, /*remote=*/false,
                  simnet::SpanKind::kFlush);
}

void Win::sync(Comm& c) {
  world_->engine_.perform(c.rank_ctx(),
                          [&] { space_.apply(c.rank(), c.now()); });
}

void Win::wait_any_unapplied(Comm& c) {
  space_.wait_delivery(c.rank_ctx(), "win.wait_any_unapplied");
}

std::uint64_t Win::compare_and_swap(Comm& c, std::uint64_t compare,
                                    std::uint64_t value, int target,
                                    std::uint64_t target_off) {
  return space_.atomic(c.rank_ctx(), c.rma_params(), target, target_off,
                       rma::AtomicOp{value, compare, true});
}

std::uint64_t Win::fetch_add(Comm& c, std::uint64_t add, int target,
                             std::uint64_t target_off) {
  return space_.atomic(c.rank_ctx(), c.rma_params(), target, target_off,
                       rma::AtomicOp{add, 0, false});
}

void Win::fence(Comm& c) {
  space_.sync_all(c.rank_ctx(), c.rma_params(), "win.fence", "win.fence");
}

std::size_t Win::unapplied_count(int rank) const {
  return space_.queue(rank).size();
}

void Win::local_access(Comm& c, std::uint64_t off, std::uint64_t bytes,
                       bool is_write) {
  space_.local_access(c.rank_ctx(), off, bytes, is_write);
}

}  // namespace mrl::mpi
