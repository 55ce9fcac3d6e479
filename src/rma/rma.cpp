#include "rma/rma.hpp"

#include <cstring>

#include "simnet/platform.hpp"
#include "util/units.hpp"

namespace mrl::rma {

namespace {

/// Bytes a delivery holds in the payload buffer.
std::uint64_t span_of(const Delivery& d) {
  if (d.payload == kNoPayload) return 0;
  return (d.captured ? d.bytes : 0) + (d.sig_off != kNoSignal ? 8 : 0);
}

}  // namespace

void DeliveryQueue::push(std::uint64_t off, std::uint64_t bytes,
                         const void* data, simnet::TimeUs arrival,
                         check::PutHandles chk, std::uint64_t sig_off,
                         std::uint64_t sig_val) {
  Delivery d;
  d.off = off;
  d.bytes = bytes;
  d.sig_off = sig_off;
  d.captured = data != nullptr && bytes > 0;
  if (d.captured || sig_off != kNoSignal) d.payload = payload_.size();
  if (d.captured) {
    const auto* p = static_cast<const std::byte*>(data);
    payload_.insert(payload_.end(), p, p + bytes);
  }
  if (sig_off != kNoSignal) {
    const auto* v = reinterpret_cast<const std::byte*>(&sig_val);
    payload_.insert(payload_.end(), v, v + sizeof(sig_val));
  }
  d.arrival = arrival;
  d.chk = chk;
  // Keep (arrival, push) order: move back past the entries that arrive
  // strictly later. An in-order push moves nothing.
  pending_.push_back(d);
  auto at = pending_.end() - 1;
  for (; at != pending_.begin() && (at - 1)->arrival > arrival; --at) {
    *at = *(at - 1);
  }
  *at = d;
  ++pushes_;
}

simnet::TimeUs DeliveryQueue::apply(
    simnet::TimeUs cutoff, std::byte* base,
    util::FunctionRef<void(const Delivery&)> on_applied,
    std::vector<std::byte>& scratch) {
  auto it = pending_.begin();
  for (; it != pending_.end() && it->arrival <= cutoff; ++it) {
    const Delivery& d = *it;
    if (d.captured) {
      std::memcpy(base + d.off, payload_.data() + d.payload, d.bytes);
    }
    if (d.sig_off != kNoSignal) {
      std::memcpy(base + d.sig_off,
                  payload_.data() + d.payload + (d.captured ? d.bytes : 0),
                  sizeof(std::uint64_t));
    }
    on_applied(d);
  }
  if (it == pending_.begin()) return 0;
  const simnet::TimeUs latest = (it - 1)->arrival;
  pending_.erase(pending_.begin(), it);
  compact_payload(scratch);
  return latest;
}

void DeliveryQueue::compact_payload(std::vector<std::byte>& scratch) {
  if (pending_.empty()) {
    payload_.clear();
    return;
  }
  if (payload_.empty()) return;
  std::uint64_t live = 0;
  for (const Delivery& d : pending_) live += span_of(d);
  if (2 * live > payload_.size()) return;
  // Entry order is not buffer order once pushes arrived out of order, so
  // gather the pending bytes in `scratch` and copy them back to the front.
  scratch.clear();
  for (Delivery& d : pending_) {
    if (d.payload == kNoPayload) continue;
    const auto* p = payload_.data() + d.payload;
    d.payload = scratch.size();
    scratch.insert(scratch.end(), p, p + span_of(d));
  }
  payload_.assign(scratch.begin(), scratch.end());
}

bool DeliveryQueue::arrived_overlaps(std::uint64_t off, std::uint64_t bytes,
                                     simnet::TimeUs now) const {
  for (const Delivery& d : pending_) {
    if (d.arrival > now) break;
    const bool data_hit = d.off < off + bytes && off < d.off + d.bytes;
    const bool sig_hit = d.sig_off != kNoSignal && d.sig_off < off + bytes &&
                         off < d.sig_off + 8;
    if (data_hit || sig_hit) return true;
  }
  return false;
}

Space::Space(runtime::Engine& eng, util::PairMap<simnet::TimeUs>& fifo)
    : eng_(eng), fifo_(fifo) {
  const auto n = static_cast<std::size_t>(eng.nranks());
  region_.resize(n);
  queues_.resize(n);
  outstanding_.resize(n);
}

void Space::put(runtime::Rank& r, int target, const simnet::LogGP& pp,
                std::uint64_t off, std::uint64_t bytes, const void* data,
                check::PutHandles chk, simnet::OpKind kind,
                std::uint64_t sig_off, std::uint64_t sig_val) {
  simnet::TransferParams tp;
  tp.src_ep = r.endpoint();
  tp.dst_ep = eng_.platform().endpoint_of_rank(target, r.size());
  tp.src_rank = r.id();
  tp.pump_gbs = eng_.platform().rank_pump_gbs();
  tp.bytes = bytes + (sig_off != kNoSignal ? 8 : 0);
  tp.start_us = r.now();
  tp.sw_latency_us = pp.L_us;
  tp.inj_gap_us = pp.g_us;
  tp.per_stream_gbs = pp.per_stream_gbs;
  const simnet::TransferResult tr = eng_.fabric().transfer(tp);
  const simnet::TimeUs arrival =
      clamp_fifo(fifo_, r.id(), target, tr.arrival_us);
  queues_[static_cast<std::size_t>(target)].push(off, bytes, data, arrival,
                                                 chk, sig_off, sig_val);
  // One record per target: look it up newest-first, since a stream keeps
  // writing to the target it wrote to last.
  auto& outs = outstanding_[static_cast<std::size_t>(r.id())];
  auto o = std::find_if(outs.rbegin(), outs.rend(), [&](const Outstanding& x) {
    return x.target == target;
  });
  if (o == outs.rend()) {
    outs.push_back(Outstanding{target, arrival, tr.inject_free_us});
  } else {
    o->remote_done = std::max(o->remote_done, arrival);
    o->local_done = std::max(o->local_done, tr.inject_free_us);
  }
  eng_.record_msg(simnet::MsgRecord{r.id(), target, bytes, r.now(), arrival,
                                    kind, r.epoch(), tr.drops, tr.queue_us,
                                    tr.ser_us, tr.dlink});
}

simnet::TimeUs Space::apply(int rank, simnet::TimeUs cutoff) {
  DeliveryQueue& q = queues_[static_cast<std::size_t>(rank)];
  // A fence or barrier drain visits every rank; most have nothing pending.
  if (q.size() == 0) return 0;
  return q.apply(
      cutoff, region(rank).base,
      [&](const Delivery& d) {
        eng_.metrics().on_recv(rank, d.bytes);
        auto& chk = eng_.checker();
        if (chk.enabled() && chk_space >= 0) {
          // Target-side observation: the put completes and `rank` learns
          // the origin's clock at issue.
          chk.on_applied(chk_space, rank, d.chk);
        }
      },
      scratch_);
}

simnet::TimeUs Space::drain(simnet::TimeUs done) {
  for (int r = 0; r < eng_.nranks(); ++r) {
    done = std::max(done, apply(r, simnet::kTimeInf));
    outstanding_[static_cast<std::size_t>(r)].clear();
  }
  return done;
}

void Space::wait_delivery(runtime::Rank& r, const char* what) {
  const DeliveryQueue& q = queue(r.id());
  eng_.wait(
      r, what, q.next_push(), [&] { return q.earliest_arrival(); },
      [&] { apply(r.id(), r.now()); });
}

void Space::complete(runtime::Rank& r, double o_us, int target, bool remote,
                     simnet::SpanKind kind) {
  r.advance(o_us);
  const simnet::TimeUs t0 = r.now();
  eng_.perform(r, [&] {
    auto& outs = outstanding_[static_cast<std::size_t>(r.id())];
    const auto toward = [&](const Outstanding& o) {
      return target == -1 || o.target == target;
    };
    simnet::TimeUs done = r.now();
    for (const Outstanding& o : outs) {
      if (!toward(o)) continue;
      done = std::max(done, remote ? o.remote_done : o.local_done);
    }
    if (remote) std::erase_if(outs, toward);
    if (done > r.now()) r.advance(done - r.now());
    auto& chk = eng_.checker();
    if (chk.enabled() && chk_space >= 0) {
      if (remote) {
        chk.on_flush(r.id(), chk_space, target);
      } else {
        chk.on_flush_local(r.id(), chk_space, target);
      }
    }
  });
  eng_.record_advance_span(r, kind, t0, target, 0);
  // flush_local is not remote completion: its puts stay in the current
  // epoch, and flush / fence still owe their waits.
  if (remote) r.bump_epoch();
}

RoundTrip get_round_trip(runtime::Engine& eng, runtime::Rank& r, int target,
                         double L_us, std::uint64_t bytes) {
  const simnet::Platform& pf = eng.platform();
  const double rtt = pf.hw_rtt_us(r.id(), target, r.size());
  const double bw = pf.pair_peak_gbs(r.id(), target, r.size());
  const simnet::RoundTripFault rtf = eng.fabric().sample_round_trip(
      r.endpoint(), pf.endpoint_of_rank(target, r.size()), r.now());
  RoundTrip rt;
  rt.q_us = rtf.extra_us + eng.fabric().faults().backoff_us(rtf.drops);
  rt.s_us = static_cast<double>(bytes) * gbs_to_us_per_byte(bw);
  rt.total_us = L_us + rtt + rt.s_us + rt.q_us;
  rt.drops = rtf.drops;
  return rt;
}

std::uint64_t atomic_rmw(runtime::Engine& eng, runtime::Rank& r, int target,
                         const simnet::LogGP& pp, AtomicOp op,
                         util::FunctionRef<std::byte*()> word) {
  r.advance(pp.atomic_o());
  const simnet::TimeUs t0 = r.now();
  std::uint64_t old = 0;
  RoundTrip rt;
  eng.perform(r, [&] {
    auto* p = reinterpret_cast<std::uint64_t*>(word());
    old = *p;
    if (op.is_cas) {
      if (old == op.compare) *p = op.operand;
      eng.metrics().on_cas_attempt(r.id(), old == op.compare);
    } else {
      *p = old + op.operand;
    }
    // Request/response through the fabric: atomics contend on link lanes
    // (e.g. the Summit X-Bus per-transaction occupancy) but skip the put
    // software path.
    simnet::TransferParams req;
    req.src_ep = r.endpoint();
    req.dst_ep = eng.platform().endpoint_of_rank(target, r.size());
    req.src_rank = r.id();
    req.bytes = 8;
    req.start_us = r.now();
    req.sw_latency_us = pp.atomic_L_us / 2;
    const simnet::TransferResult r1 = eng.fabric().transfer(req);
    simnet::TransferParams rsp = req;
    rsp.src_ep = req.dst_ep;
    rsp.dst_ep = req.src_ep;
    rsp.src_rank = target;
    rsp.start_us = r1.arrival_us;
    const simnet::TransferResult r2 = eng.fabric().transfer(rsp);
    // Each dropped attempt already paid its retransmit timeout inside
    // transfer(); the origin additionally backs off exponentially.
    rt.drops = r1.drops + r2.drops;
    const double backoff = eng.fabric().faults().backoff_us(rt.drops);
    rt.total_us = r2.arrival_us - r.now() + backoff;
    // Decomposition over both legs; the dominant-queueing leg names the link.
    rt.q_us = r1.queue_us + r2.queue_us + backoff;
    rt.s_us = r1.ser_us + r2.ser_us;
    const std::int32_t dlink =
        r1.queue_us >= r2.queue_us ? r1.dlink : r2.dlink;
    eng.record_msg(simnet::MsgRecord{r.id(), target, 8, r.now(),
                                     r.now() + rt.total_us,
                                     simnet::OpKind::kAtomic, r.epoch(),
                                     rt.drops, rt.q_us, rt.s_us, dlink});
  });
  r.advance(rt.total_us);
  eng.record_advance_span(r, simnet::SpanKind::kAtomic, t0, target, 8, rt.q_us,
                          rt.s_us);
  return old;
}

}  // namespace mrl::rma
