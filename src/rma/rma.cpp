#include "rma/rma.hpp"

#include <cstring>
#include <string>

#include "simnet/platform.hpp"
#include "util/units.hpp"

namespace mrl::rma {

namespace {

/// Bytes a delivery holds in the payload buffer.
std::uint64_t span_of(const Delivery& d) {
  if (d.payload == kNoPayload) return 0;
  return (d.captured ? d.bytes : 0) + (d.sig_off != kNoSignal ? 8 : 0);
}

/// Aborts, like a failed MRL_CHECK_MSG(expr, ...), on a misused access
/// `op`; the message is op + what + noun + tail. Out of line and cold, so
/// the per-operation paths that check stay small.
[[noreturn, gnu::cold, gnu::noinline]] void misuse(const char* expr,
                                                   const char* op,
                                                   const char* what,
                                                   const char* noun,
                                                   const char* tail) {
  const std::string m = std::string(op) + what + noun + tail;
  detail::check_failed(expr, __FILE__, __LINE__, m.c_str());
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
    payload_.append(p, bytes);
  }
  if (sig_off != kNoSignal) {
    const auto* v = reinterpret_cast<const std::byte*>(&sig_val);
    payload_.append(v, sizeof(sig_val));
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
  pending_.erase_front(static_cast<std::size_t>(it - pending_.begin()));
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
  payload_.assign(scratch.data(), scratch.size());
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

Space::Space(runtime::Engine& eng, util::PairMap<simnet::TimeUs>& fifo,
             const char* chk_name, const char* sync_name, const char* noun,
             int index)
    : eng_(eng),
      fifo_(fifo),
      chk_name_(chk_name),
      sync_name_(sync_name),
      noun_(noun),
      index_(index) {
  const auto n = static_cast<std::size_t>(eng.nranks());
  region_.resize(n);
  queues_.resize(n);
  outstanding_.resize(n);
}

void Space::register_checker() {
  check::Checker& chk = eng_.checker();
  if (!chk.enabled() || chk_space_ >= 0) return;
  std::string name = chk_name_;
  std::string sync = sync_name_;
  if (index_ >= 0) {
    name += std::to_string(index_);
    sync = name + sync_name_;
  }
  chk_space_ = chk.add_space(name);
  // The channel's completion is a global sync for the space: a fence or
  // barrier clears its access history.
  chk_chan_ = chk.add_channel(sync, chk_space_);
}

// The per-operation helpers are inline: every put, get and atomic runs them.
inline check::Checker* Space::checker() {
  check::Checker& chk = eng_.checker();
  if (!chk.enabled()) return nullptr;
  if (chk_space_ < 0) register_checker();
  return &chk;
}

inline check::Checker* Space::registered_checker() {
  check::Checker& chk = eng_.checker();
  return chk.enabled() && chk_space_ >= 0 ? &chk : nullptr;
}

inline std::byte* Space::at(int target, std::uint64_t off,
                            std::uint64_t bytes, const char* op) {
  MRL_CHECK(target >= 0 && target < eng_.nranks());
  const Region& reg = region(target);
  if (reg.base == nullptr) {
    misuse("reg.base != nullptr", op, " on unexposed ", noun_, " region");
  }
  if (!in_bounds(off, bytes, reg.size)) {
    misuse("in_bounds(off, bytes, reg.size)", op, " outside ", noun_, "");
  }
  return reg.base + off;
}

void Space::put(runtime::Rank& r, const simnet::LogGP& pp, int target,
                std::uint64_t off, std::uint64_t bytes, const void* data,
                simnet::OpKind kind, std::uint64_t sig_off,
                std::uint64_t sig_val) {
  r.advance(pp.o_us);
  eng_.perform(r, [&] {
    put_locked(r, pp, target, off, bytes, data, kind, sig_off, sig_val);
  });
}

void Space::put_locked(runtime::Rank& r, const simnet::LogGP& pp,
                       int target, std::uint64_t off, std::uint64_t bytes,
                       const void* data, simnet::OpKind kind,
                       std::uint64_t sig_off, std::uint64_t sig_val) {
  at(target, off, bytes, "put");
  if (sig_off != kNoSignal) at(target, sig_off, 8, "signal");
  check::PutHandles h;
  if (check::Checker* chk = checker()) {
    const check::PutClass cls = kind == simnet::OpKind::kSignal
                                    ? check::PutClass::kSignal
                                : kind == simnet::OpKind::kPutSignal
                                    ? check::PutClass::kFused
                                    : check::PutClass::kData;
    h = chk->on_put(r.id(), chk_space_, target, off, bytes, cls,
                    cls == check::PutClass::kFused ? sig_off : 0, r.now());
  }
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
                                                 h, sig_off, sig_val);
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

RoundTrip Space::get(runtime::Rank& r, const simnet::LogGP& pp, int target,
                     std::uint64_t off, std::uint64_t bytes, void* dest) {
  r.advance(pp.o_us);
  RoundTrip rt;
  rt.issued = r.now();
  eng_.perform(r, [&] {
    const std::byte* src = at(target, off, bytes, "get");
    const simnet::Platform& pf = eng_.platform();
    const int src_ep = r.endpoint();
    const int dst_ep = pf.endpoint_of_rank(target, r.size());
    const double rtt = pf.endpoint_rtt_us(src_ep, dst_ep);
    const double bw = pf.endpoint_peak_gbs(src_ep, dst_ep);
    const simnet::RoundTripFault rtf =
        eng_.fabric().sample_round_trip(src_ep, dst_ep, r.now());
    rt.q_us = rtf.extra_us + eng_.fabric().faults().backoff_us(rtf.drops);
    rt.s_us = static_cast<double>(bytes) * gbs_to_us_per_byte(bw);
    rt.total_us = pp.L_us + rtt + rt.s_us + rt.q_us;
    rt.drops = rtf.drops;
    std::memcpy(dest, src, bytes);
    if (check::Checker* chk = checker()) {
      chk->on_get(r.id(), chk_space_, target, off, bytes, r.now());
    }
  });
  r.advance(rt.total_us);
  eng_.record_advance_span(r, simnet::SpanKind::kGet, rt.issued, target, bytes,
                           rt.q_us, rt.s_us);
  return rt;
}

std::uint64_t Space::atomic(runtime::Rank& r, const simnet::LogGP& pp,
                            int target, std::uint64_t off, AtomicOp op) {
  r.advance(pp.atomic_o());
  const simnet::TimeUs t0 = r.now();
  std::uint64_t old = 0;
  RoundTrip rt;
  eng_.perform(r, [&] {
    auto* p = reinterpret_cast<std::uint64_t*>(at(target, off, 8, "atomic"));
    if (check::Checker* chk = checker()) {
      chk->on_atomic(r.id(), chk_space_, target, off, 8, r.now());
    }
    old = *p;
    if (op.is_cas) {
      if (old == op.compare) *p = op.operand;
      eng_.metrics().on_cas_attempt(r.id(), old == op.compare);
    } else {
      *p = old + op.operand;
    }
    // Request/response through the fabric: atomics contend on link lanes
    // (e.g. the Summit X-Bus per-transaction occupancy) but skip the put
    // software path.
    simnet::TransferParams req;
    req.src_ep = r.endpoint();
    req.dst_ep = eng_.platform().endpoint_of_rank(target, r.size());
    req.src_rank = r.id();
    req.bytes = 8;
    req.start_us = r.now();
    req.sw_latency_us = pp.atomic_L_us / 2;
    const simnet::TransferResult r1 = eng_.fabric().transfer(req);
    simnet::TransferParams rsp = req;
    rsp.src_ep = req.dst_ep;
    rsp.dst_ep = req.src_ep;
    rsp.src_rank = target;
    rsp.start_us = r1.arrival_us;
    const simnet::TransferResult r2 = eng_.fabric().transfer(rsp);
    // Each dropped attempt already paid its retransmit timeout inside
    // transfer(); the origin additionally backs off exponentially.
    rt.drops = r1.drops + r2.drops;
    const double backoff = eng_.fabric().faults().backoff_us(rt.drops);
    rt.total_us = r2.arrival_us - r.now() + backoff;
    // Decomposition over both legs; the dominant-queueing leg names the link.
    rt.q_us = r1.queue_us + r2.queue_us + backoff;
    rt.s_us = r1.ser_us + r2.ser_us;
    const std::int32_t dlink =
        r1.queue_us >= r2.queue_us ? r1.dlink : r2.dlink;
    eng_.record_msg(simnet::MsgRecord{r.id(), target, 8, r.now(),
                                      r.now() + rt.total_us,
                                      simnet::OpKind::kAtomic, r.epoch(),
                                      rt.drops, rt.q_us, rt.s_us, dlink});
  });
  r.advance(rt.total_us);
  eng_.record_advance_span(r, simnet::SpanKind::kAtomic, t0, target, 8,
                           rt.q_us, rt.s_us);
  return old;
}

void Space::local_access(runtime::Rank& r, std::uint64_t off,
                         std::uint64_t bytes, bool is_write) {
  if (!eng_.checker().enabled()) return;
  eng_.perform(r, [&] {
    check::Checker* chk = checker();
    const bool unapplied =
        queue(r.id()).arrived_overlaps(off, bytes, r.now());
    chk->on_local(r.id(), chk_space_, off, bytes, is_write, unapplied,
                  r.now());
  });
}

void Space::note_signal_wait(runtime::Rank& r, std::uint64_t off,
                             std::uint64_t bytes) {
  if (check::Checker* chk = checker()) {
    chk->on_atomic(r.id(), chk_space_, r.id(), off, bytes, r.now());
  }
}

simnet::TimeUs Space::apply(int rank, simnet::TimeUs cutoff) {
  DeliveryQueue& q = queues_[static_cast<std::size_t>(rank)];
  // A fence or barrier drain visits every rank; most have nothing pending.
  if (q.size() == 0) return 0;
  return q.apply(
      cutoff, region(rank).base,
      [&](const Delivery& d) {
        eng_.metrics().on_recv(rank, d.bytes);
        if (check::Checker* chk = registered_checker()) {
          // Target-side observation: the put completes and `rank` learns
          // the origin's clock at issue.
          chk->on_applied(chk_space_, rank, d.chk);
        }
      },
      scratch_);
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
    if (check::Checker* chk = registered_checker()) {
      if (remote) {
        chk->on_flush(r.id(), chk_space_, target);
      } else {
        chk->on_flush_local(r.id(), chk_space_, target);
      }
    }
  });
  eng_.record_advance_span(r, kind, t0, target, 0);
  // flush_local is not remote completion: its puts stay in the current
  // epoch, and flush / fence still owe their waits.
  if (remote) r.bump_epoch();
}

void Space::sync_all(runtime::Rank& r, const simnet::LogGP& pp,
                     const char* kind, const char* what) {
  sync_.join(
      eng_, r, pp, kind, what,
      [this] {
        register_checker();
        return chk_chan_;
      },
      [this](simnet::TimeUs done) {
        // Completion applies every pending put and forgets every
        // outstanding one.
        for (int rank = 0; rank < eng_.nranks(); ++rank) {
          done = std::max(done, apply(rank, simnet::kTimeInf));
          outstanding_[static_cast<std::size_t>(rank)].clear();
        }
        return done;
      });
}

void Rendezvous::join(
    runtime::Engine& eng, runtime::Rank& r, const simnet::LogGP& pp,
    const char* kind, const char* what, util::FunctionRef<int()> channel,
    util::FunctionRef<simnet::TimeUs(simnet::TimeUs)> drain) {
  r.advance(pp.o_us);
  const int n = eng.nranks();
  const double cost = rendezvous_rounds(n) * (2.0 * pp.o_us + pp.L_us);
  std::uint64_t gen = 0;
  eng.perform(r, [&] {
    gen = gen_;
    max_enter_ = std::max(max_enter_, r.now());
    const bool last = ++entered_ == n;
    if (last) {
      Slot& slot = ring_[gen % ring_.size()];
      slot.gen = gen;
      slot.done_at = drain ? drain(max_enter_ + cost) : max_enter_ + cost;
      entered_ = 0;
      max_enter_ = 0;
      ++gen_;
    }
    check::Checker& chk = eng.checker();
    if (chk.enabled() &&
        !chk.on_collective_enter(channel(), r.id(), kind, r.now(), gen,
                                 last)) {
      // A kind-blind rendezvous would pair, say, create_win with a user
      // barrier; abort with the diagnostic.
      eng.abort_run(r, ErrorCode::kFailedPrecondition, chk.report());
    }
  });
  const Slot& slot = ring_[gen % ring_.size()];
  eng.wait(r, what, runtime::WaitGate{&gen_, gen + 1},
           [&]() -> std::optional<double> {
             if (gen_ <= gen) return std::nullopt;
             MRL_CHECK_MSG(slot.gen == gen,
                           "rendezvous result slot overwritten");
             return slot.done_at;
           });
  r.bump_epoch();
}

}  // namespace mrl::rma
