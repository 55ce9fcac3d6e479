#include "mpi/win.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "mpi/comm.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::mpi {

Win::Win(World* world, int nranks) : world_(world), nranks_(nranks) {
  region_.resize(static_cast<std::size_t>(nranks_));
  pending_.resize(static_cast<std::size_t>(nranks_));
  payload_.resize(static_cast<std::size_t>(nranks_));
  outstanding_.resize(static_cast<std::size_t>(nranks_));
  put_pushes_.resize(static_cast<std::size_t>(nranks_), 0);
}

void Win::put(Comm& c, const void* origin, std::uint64_t bytes, int target,
              std::uint64_t target_off, simnet::OpKind kind) {
  MRL_CHECK(target >= 0 && target < nranks_);
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);

  auto& eng = world_->engine_;
  eng.perform(c.rank_ctx(), [&] {
    const Region& tr = region_[static_cast<std::size_t>(target)];
    MRL_CHECK_MSG(tr.base != nullptr, "put to unexposed window region");
    MRL_CHECK_MSG(target_off + bytes <= tr.size, "put out of window bounds");

    simnet::TransferParams tp;
    tp.src_ep = c.rank_ctx().endpoint();
    tp.dst_ep = eng.platform().endpoint_of_rank(target, c.size());
    tp.src_rank = c.rank();
    tp.pump_gbs = eng.platform().rank_pump_gbs();
    tp.bytes = bytes;
    tp.start_us = c.now();
    tp.sw_latency_us = pp.L_us;
    tp.inj_gap_us = pp.g_us;
    tp.per_stream_gbs = pp.per_stream_gbs;
    const simnet::TransferResult res = eng.fabric().transfer(tp);
    const simnet::TimeUs arrival =
        world_->clamp_fifo(c.rank(), target, res.arrival_us);

    PendingPut pp2;
    pp2.off = target_off;
    pp2.bytes = bytes;
    if (world_->capture_payloads && bytes > 0) {
      auto& buf = payload_[static_cast<std::size_t>(target)];
      const auto* p = static_cast<const std::byte*>(origin);
      pp2.data = buf.size();
      buf.insert(buf.end(), p, p + bytes);
    }
    pp2.arrival = arrival;
    pp2.seq = put_seq_++;
    auto& chk = eng.checker();
    if (chk.enabled() && chk_space_ >= 0) {
      const check::PutHandles h = chk.on_put(
          c.rank(), chk_space_, target, target_off, bytes,
          kind == simnet::OpKind::kSignal ? check::PutClass::kSignal
                                          : check::PutClass::kData,
          0, c.now());
      pp2.chk_data = h.data;
    }
    pending_[static_cast<std::size_t>(target)].push_back(pp2);
    // Advance the target's put-arrival gate counter: a rank parked in
    // wait_any_unapplied is only re-evaluated when this moves.
    ++put_pushes_[static_cast<std::size_t>(target)];

    outstanding_[static_cast<std::size_t>(c.rank())].push_back(
        Outstanding{target, arrival, res.inject_free_us});
    eng.record_msg(simnet::MsgRecord{c.rank(), target, bytes, c.now(),
                                     arrival, kind, c.rank_ctx().epoch(),
                                     res.drops, res.queue_us, res.ser_us,
                                     res.dlink});
  });
}

void Win::get(Comm& c, void* dest, std::uint64_t bytes, int target,
              std::uint64_t target_off) {
  MRL_CHECK(target >= 0 && target < nranks_);
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);
  auto& eng = world_->engine_;
  const simnet::TimeUs t0 = c.now();
  double total_us = 0;
  double q_us = 0;
  double s_us = 0;
  eng.perform(c.rank_ctx(), [&] {
    const Region& tr = region_[static_cast<std::size_t>(target)];
    MRL_CHECK_MSG(tr.base != nullptr, "get from unexposed window region");
    MRL_CHECK_MSG(target_off + bytes <= tr.size, "get out of window bounds");
    // Request/response: software latency + hardware RTT + payload stream-in.
    const double rtt =
        eng.platform().hw_rtt_us(c.rank(), target, c.size());
    const double pair_bw =
        eng.platform().pair_peak_gbs(c.rank(), target, c.size());
    const double ser = static_cast<double>(bytes) * gbs_to_us_per_byte(pair_bw);
    // Under injected faults the round trip additionally pays jitter/outage
    // stalls, per-drop retransmit timeouts, and origin-side retry backoff
    // (all zero on a pristine fabric).
    const simnet::RoundTripFault rtf = eng.fabric().sample_round_trip(
        c.rank_ctx().endpoint(),
        eng.platform().endpoint_of_rank(target, c.size()), c.now());
    // Decomposition: fault stalls + retry backoff count as queueing, the
    // payload stream-in as serialization; the L + RTT remainder is latency.
    q_us = rtf.extra_us + eng.fabric().faults().backoff_us(rtf.drops);
    s_us = ser;
    total_us = pp.L_us + rtt + ser + q_us;
    // Reads current contents: arrived-but-unapplied puts are not visible,
    // matching our separate-memory RMA model.
    std::memcpy(dest, tr.base + target_off, bytes);
    auto& chk = eng.checker();
    if (chk.enabled() && chk_space_ >= 0) {
      chk.on_get(c.rank(), chk_space_, target, target_off, bytes, c.now());
    }
    // Gets keep their historical kPut trace encoding (changing it would
    // change every existing trace byte); is_get reclassifies for metrics.
    eng.record_msg(simnet::MsgRecord{c.rank(), target, bytes, c.now(),
                                     c.now() + total_us, simnet::OpKind::kPut,
                                     c.rank_ctx().epoch(), rtf.drops, q_us,
                                     s_us, -1},
                   /*is_get=*/true);
  });
  c.rank_ctx().advance(total_us);
  eng.record_advance_span(c.rank_ctx(), simnet::SpanKind::kGet, t0, target,
                          bytes, q_us, s_us);
}

void Win::flush(Comm& c, int target) {
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);
  auto& eng = world_->engine_;
  const simnet::TimeUs t0 = c.now();
  eng.perform(c.rank_ctx(), [&] {
    auto& outs = outstanding_[static_cast<std::size_t>(c.rank())];
    simnet::TimeUs done = c.now();
    auto it = std::remove_if(outs.begin(), outs.end(), [&](const Outstanding& o) {
      if (target != -1 && o.target != target) return false;
      done = std::max(done, o.remote_done);
      return true;
    });
    outs.erase(it, outs.end());
    if (done > c.now()) c.rank_ctx().advance(done - c.now());
    auto& chk = eng.checker();
    if (chk.enabled() && chk_space_ >= 0) {
      chk.on_flush(c.rank(), chk_space_, target);
    }
  });
  eng.record_advance_span(c.rank_ctx(), simnet::SpanKind::kFlush, t0, target,
                          0);
  c.rank_ctx().bump_epoch();
}

void Win::flush_all(Comm& c) { flush(c, -1); }

void Win::flush_local(Comm& c, int target) {
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);
  auto& eng = world_->engine_;
  const simnet::TimeUs t0 = c.now();
  eng.perform(c.rank_ctx(), [&] {
    simnet::TimeUs done = c.now();
    for (const Outstanding& o :
         outstanding_[static_cast<std::size_t>(c.rank())]) {
      if (target != -1 && o.target != target) continue;
      done = std::max(done, o.local_done);
    }
    if (done > c.now()) c.rank_ctx().advance(done - c.now());
    auto& chk = eng.checker();
    if (chk.enabled() && chk_space_ >= 0) {
      chk.on_flush_local(c.rank(), chk_space_, target);
    }
  });
  eng.record_advance_span(c.rank_ctx(), simnet::SpanKind::kFlush, t0, target,
                          0);
  // No bump_epoch: flush_local is not remote completion, so puts stay in
  // the current outstanding epoch and flush/fence still owe their waits.
}

void Win::flush_local_all(Comm& c) { flush_local(c, -1); }

void Win::apply_pending_locked(int rank, simnet::TimeUs cutoff) {
  auto& pend = pending_[static_cast<std::size_t>(rank)];
  if (pend.empty()) return;
  // Arrived puts move to the tail and are sorted there, in place: seq is
  // unique, so (arrival, seq) is a total order and the application order
  // does not depend on the partition's.
  const auto ready = std::partition(
      pend.begin(), pend.end(), [&](const PendingPut& p) {
        return p.arrival > cutoff;  // keep not-yet-arrived in place
      });
  std::sort(ready, pend.end(), [](const PendingPut& a, const PendingPut& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.seq < b.seq;
  });
  const Region& reg = region_[static_cast<std::size_t>(rank)];
  const std::byte* bytes = payload_[static_cast<std::size_t>(rank)].data();
  auto& metrics = world_->engine_.metrics();
  auto& chk = world_->engine_.checker();
  for (auto it = ready; it != pend.end(); ++it) {
    const PendingPut& p = *it;
    if (p.data != kNoData) {
      std::memcpy(reg.base + p.off, bytes + p.data, p.bytes);
    }
    metrics.on_recv(rank, p.bytes);
    if (chk.enabled() && chk_space_ >= 0) {
      // Target-side observation: the put completes and `rank` learns the
      // origin's clock at issue.
      chk.on_applied(chk_space_, rank,
                     check::PutHandles{p.chk_data, check::kNoRec});
    }
  }
  pend.erase(ready, pend.end());
  trim_payload_locked(rank);
}

void Win::trim_payload_locked(int rank) {
  auto& buf = payload_[static_cast<std::size_t>(rank)];
  auto& pend = pending_[static_cast<std::size_t>(rank)];
  if (pend.empty()) {
    buf.clear();
    return;
  }
  if (buf.empty()) return;
  std::uint64_t live = 0;
  for (const PendingPut& p : pend) {
    if (p.data != kNoData) live += p.bytes;
  }
  if (2 * live > buf.size()) return;
  // Slide the pending bytes to the front in buffer order: each moves to an
  // offset at or below its own, so no unread byte is overwritten.
  std::sort(pend.begin(), pend.end(),
            [](const PendingPut& a, const PendingPut& b) {
              return a.data < b.data;
            });
  std::uint64_t w = 0;
  for (PendingPut& p : pend) {
    if (p.data == kNoData) continue;
    std::memmove(buf.data() + w, buf.data() + p.data, p.bytes);
    p.data = w;
    w += p.bytes;
  }
  buf.resize(w);
}

void Win::sync(Comm& c) {
  world_->engine_.perform(c.rank_ctx(), [&] {
    apply_pending_locked(c.rank(), c.now());
  });
}

void Win::wait_any_unapplied(Comm& c) {
  auto& eng = world_->engine_;
  auto& pend = pending_[static_cast<std::size_t>(c.rank())];
  // Gated on my put-arrival counter (DESIGN.md §12): while I am blocked here
  // pending_ can only grow (fence is collective, so nobody else drains it),
  // and every growth bumps the counter — the condition is satisfiable
  // exactly once the counter moves.
  const std::uint64_t& ctr = put_pushes_[static_cast<std::size_t>(c.rank())];
  eng.wait(
      c.rank_ctx(), "win.wait_any_unapplied",
      [&]() -> std::optional<double> {
        if (pend.empty()) return std::nullopt;
        double first = pend.front().arrival;
        for (const PendingPut& p : pend) first = std::min(first, p.arrival);
        return first;
      },
      [&] { apply_pending_locked(c.rank(), c.now()); },
      runtime::WaitGate{&ctr, ctr + 1});
}

std::uint64_t Win::atomic_rmw(Comm& c, int target, std::uint64_t target_off,
                              std::uint64_t operand, std::uint64_t compare,
                              bool is_cas) {
  MRL_CHECK(target >= 0 && target < nranks_);
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.atomic_o());
  auto& eng = world_->engine_;
  std::uint64_t old = 0;
  const simnet::TimeUs t0 = c.now();
  double total_us = 0;
  double q_us = 0;
  double s_us = 0;
  eng.perform(c.rank_ctx(), [&] {
    const Region& tr = region_[static_cast<std::size_t>(target)];
    MRL_CHECK_MSG(tr.base != nullptr, "atomic on unexposed window region");
    MRL_CHECK_MSG(target_off + 8 <= tr.size, "atomic out of window bounds");
    // Linearize in issue order: apply now, charge the round trip to the
    // origin. Atomics act on committed memory directly (they are performed
    // by the target NIC/agent, not subject to the put visibility epoch).
    std::uint64_t* p =
        reinterpret_cast<std::uint64_t*>(tr.base + target_off);
    old = *p;
    if (is_cas) {
      if (old == compare) *p = operand;
      eng.metrics().on_cas_attempt(c.rank(), old == compare);
    } else {
      *p = old + operand;
    }
    auto& chk = eng.checker();
    if (chk.enabled() && chk_space_ >= 0) {
      chk.on_atomic(c.rank(), chk_space_, target, target_off, c.now());
    }
    // Request/response through the fabric: atomics contend on link lanes
    // (e.g. the Summit X-Bus per-transaction occupancy) but skip the put
    // software path — only atomic_L of extra software latency.
    simnet::TransferParams req;
    req.src_ep = c.rank_ctx().endpoint();
    req.dst_ep = eng.platform().endpoint_of_rank(target, c.size());
    req.src_rank = c.rank();
    req.bytes = 8;
    req.start_us = c.now();
    req.sw_latency_us = pp.atomic_L_us / 2;
    const simnet::TransferResult r1 = eng.fabric().transfer(req);
    simnet::TransferParams rsp = req;
    rsp.src_ep = req.dst_ep;
    rsp.dst_ep = req.src_ep;
    rsp.src_rank = target;
    rsp.start_us = r1.arrival_us;
    const simnet::TransferResult r2 = eng.fabric().transfer(rsp);
    // Retry-with-backoff accounting: each dropped request/response attempt
    // already paid its retransmit timeout inside transfer(); the origin
    // additionally backs off exponentially before re-issuing.
    const int drops = r1.drops + r2.drops;
    const double backoff = eng.fabric().faults().backoff_us(drops);
    total_us = r2.arrival_us - c.now() + backoff;
    // Decomposition over both legs; the dominant-queueing leg names the link.
    q_us = r1.queue_us + r2.queue_us + backoff;
    s_us = r1.ser_us + r2.ser_us;
    const std::int32_t dlink =
        r1.queue_us >= r2.queue_us ? r1.dlink : r2.dlink;
    eng.record_msg(simnet::MsgRecord{c.rank(), target, 8, c.now(),
                                     c.now() + total_us,
                                     simnet::OpKind::kAtomic,
                                     c.rank_ctx().epoch(), drops, q_us, s_us,
                                     dlink});
  });
  c.rank_ctx().advance(total_us);
  eng.record_advance_span(c.rank_ctx(), simnet::SpanKind::kAtomic, t0, target,
                          8, q_us, s_us);
  return old;
}

std::uint64_t Win::compare_and_swap(Comm& c, std::uint64_t compare,
                                    std::uint64_t value, int target,
                                    std::uint64_t target_off) {
  return atomic_rmw(c, target, target_off, value, compare, /*is_cas=*/true);
}

std::uint64_t Win::fetch_add(Comm& c, std::uint64_t add, int target,
                             std::uint64_t target_off) {
  return atomic_rmw(c, target, target_off, add, 0, /*is_cas=*/false);
}

void Win::fence(Comm& c) {
  const simnet::LogGP& pp = c.rma_params();
  c.rank_ctx().advance(pp.o_us);
  auto& eng = world_->engine_;
  const double rounds = std::ceil(std::log2(std::max(2, nranks_)));
  const double cost = rounds * (2.0 * pp.o_us + pp.L_us);

  std::uint64_t my_gen = 0;
  eng.perform(c.rank_ctx(), [&] {
    my_gen = fence_gen_;
    if (fence_entered_ == 0) fence_max_enter_ = 0;
    ++fence_entered_;
    fence_max_enter_ = std::max(fence_max_enter_, c.now());
    if (fence_entered_ == nranks_) {
      simnet::TimeUs done = fence_max_enter_ + cost;
      for (int r = 0; r < nranks_; ++r) {
        for (const PendingPut& p : pending_[static_cast<std::size_t>(r)]) {
          done = std::max(done, p.arrival);
        }
        apply_pending_locked(r, simnet::kTimeInf);
        outstanding_[static_cast<std::size_t>(r)].clear();
      }
      FenceSlot& slot = fence_done_[my_gen % fence_done_.size()];
      slot.gen = my_gen;
      slot.done_at = done;
      fence_entered_ = 0;
      ++fence_gen_;
    }
    auto& chk = eng.checker();
    if (chk.enabled() && chk_chan_ >= 0) {
      // After the apply loop above, so every pending put has reported its
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
  const FenceSlot& slot = fence_done_[my_gen % fence_done_.size()];
  // Gated on the fence generation: waiters are not re-evaluated until the
  // last entrant bumps fence_gen_ (see runtime::WaitGate, DESIGN.md §10).
  eng.wait(
      c.rank_ctx(), "win.fence",
      [&]() -> std::optional<double> {
        if (fence_gen_ <= my_gen) return std::nullopt;
        MRL_CHECK_MSG(slot.gen == my_gen, "fence result slot overwritten");
        return slot.done_at;
      },
      {}, runtime::WaitGate{&fence_gen_, my_gen + 1});
  auto& chk = eng.checker();
  if (chk.enabled() && chk_chan_ >= 0) {
    chk.on_collective_complete(chk_chan_, c.rank(), my_gen);
  }
  c.rank_ctx().bump_epoch();
}

std::size_t Win::unapplied_count(int rank) const {
  return pending_[static_cast<std::size_t>(rank)].size();
}

void Win::local_access(Comm& c, std::uint64_t off, std::uint64_t bytes,
                       bool is_write) {
  auto& chk = world_->engine_.checker();
  if (!chk.enabled() || chk_space_ < 0) return;
  // Rank bodies execute one at a time and all window state mutates inside
  // perform bodies, so reading pending_ directly here is race-free and
  // deterministic; no perform, no clock movement, no cost.
  bool unapplied = false;
  for (const PendingPut& p :
       pending_[static_cast<std::size_t>(c.rank())]) {
    if (p.arrival <= c.now() && p.off < off + bytes && off < p.off + p.bytes) {
      unapplied = true;
      break;
    }
  }
  chk.on_local(c.rank(), chk_space_, off, bytes, is_write, unapplied, c.now());
}

}  // namespace mrl::mpi
