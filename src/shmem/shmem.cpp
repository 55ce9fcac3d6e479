#include "shmem/shmem.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::shmem {

World::World(runtime::Engine& engine, Options opt)
    : engine_(engine), opt_(opt), npes_(engine.nranks()) {
  heap_.reserve(static_cast<std::size_t>(npes_));
  for (int pe = 0; pe < npes_; ++pe) heap_.emplace_back(opt_.heap_bytes);
  pending_.resize(static_cast<std::size_t>(npes_));
  delivery_pushes_.resize(static_cast<std::size_t>(npes_), 0);
  outstanding_.resize(static_cast<std::size_t>(npes_));
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

simnet::TimeUs World::clamp_fifo(int src, int dst, simnet::TimeUs arrival) {
  simnet::TimeUs& last = fifo_last_.at(src, dst);
  last = std::max(last, arrival);
  return last;
}

void World::chk_register_locked() {
  auto& chk = engine_.checker();
  if (!chk.enabled() || chk_space_ >= 0) return;
  chk_space_ = chk.add_space("symheap");
  // barrier_all implies quiet(): its completion clears the symheap's access
  // history, so races are only reported within one barrier interval.
  chk_chan_ = chk.add_channel("shmem.world", chk_space_);
}

void World::apply_locked(int pe, simnet::TimeUs cutoff) {
  auto& pend = pending_[static_cast<std::size_t>(pe)];
  if (pend.empty()) return;
  // Arrived deliveries move to the tail and are sorted there, in place (as
  // in mpi::Win::apply_pending_locked): seq is unique, so (arrival, seq) is
  // a total order and the application order does not depend on the
  // partition's.
  const auto ready = std::partition(
      pend.begin(), pend.end(),
      [&](const Delivery& d) { return d.arrival > cutoff; });
  std::sort(ready, pend.end(), [](const Delivery& a, const Delivery& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.seq < b.seq;
  });
  std::byte* base = heap_[static_cast<std::size_t>(pe)].data();
  auto& metrics = engine_.metrics();
  auto& chk = engine_.checker();
  for (auto it = ready; it != pend.end(); ++it) {
    const Delivery& d = *it;
    if (!d.data.empty()) std::memcpy(base + d.off, d.data.data(), d.data.size());
    if (d.has_signal) {
      std::memcpy(base + d.sig_off, &d.sig_val, sizeof(d.sig_val));
    }
    metrics.on_recv(pe, d.data_bytes);
    if (chk.enabled() && chk_space_ >= 0) {
      chk.on_applied(chk_space_, pe, check::PutHandles{d.chk_data, d.chk_sig});
    }
  }
  pend.erase(ready, pend.end());
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
    MRL_CHECK_MSG(dest_off + bytes <= world_->opt_.heap_bytes,
                  "put outside symmetric heap");
    simnet::TransferParams tp;
    tp.src_ep = rank_->endpoint();
    tp.dst_ep = eng.platform().endpoint_of_rank(target_pe, n_pes());
    tp.src_rank = pe();
    tp.pump_gbs = eng.platform().rank_pump_gbs();
    tp.bytes = bytes + (has_signal ? 8 : 0);
    tp.start_us = rank_->now();
    tp.sw_latency_us = pp.L_us;
    tp.inj_gap_us = pp.g_us;
    tp.per_stream_gbs = pp.per_stream_gbs;
    const simnet::TransferResult tr = eng.fabric().transfer(tp);
    const simnet::TimeUs arrival =
        world_->clamp_fifo(pe(), target_pe, tr.arrival_us);

    World::Delivery d;
    d.off = dest_off;
    d.data_bytes = bytes;
    if (bytes > 0 && world_->opt_.capture_payloads) {
      const auto* p = static_cast<const std::byte*>(src);
      d.data.assign(p, p + bytes);
    }
    d.has_signal = has_signal;
    d.sig_off = sig_off;
    d.sig_val = sig_val;
    d.arrival = arrival;
    d.seq = world_->seq_++;
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      const check::PutHandles h = chk.on_put(
          pe(), world_->chk_space_, target_pe, dest_off, bytes,
          has_signal ? check::PutClass::kFused : check::PutClass::kData,
          sig_off, rank_->now());
      d.chk_data = h.data;
      d.chk_sig = h.sig;
    }
    world_->pending_[static_cast<std::size_t>(target_pe)].push_back(
        std::move(d));
    // Advance the target's delivery gate counter: a PE parked in a gated
    // signal wait (wait_local) is only re-evaluated when this moves.
    ++world_->delivery_pushes_[static_cast<std::size_t>(target_pe)];
    world_->outstanding_[static_cast<std::size_t>(pe())].push_back(
        World::Outstanding{target_pe, arrival, tr.inject_free_us});
    eng.record_msg(simnet::MsgRecord{
        pe(), target_pe, bytes, rank_->now(), arrival,
        has_signal ? simnet::OpKind::kPutSignal : simnet::OpKind::kPut,
        rank_->epoch(), tr.drops, tr.queue_us, tr.ser_us, tr.dlink});
  });
}

void Ctx::get_bytes(void* dest, std::uint64_t src_off, std::uint64_t bytes,
                    int target_pe) {
  MRL_CHECK(target_pe >= 0 && target_pe < n_pes());
  const simnet::LogGP& pp = params();
  rank_->advance(pp.o_us);
  auto& eng = world_->engine_;
  const simnet::TimeUs t0 = rank_->now();
  double total_us = 0;
  double q_us = 0;
  double s_us = 0;
  eng.perform(*rank_, [&] {
    const double rtt = eng.platform().hw_rtt_us(pe(), target_pe, n_pes());
    const double bw = eng.platform().pair_peak_gbs(pe(), target_pe, n_pes());
    // Fault extras (jitter/outage stalls, retransmit timeouts, origin
    // backoff) are all zero on a pristine fabric.
    const simnet::RoundTripFault rtf = eng.fabric().sample_round_trip(
        rank_->endpoint(), eng.platform().endpoint_of_rank(target_pe, n_pes()),
        rank_->now());
    q_us = rtf.extra_us + eng.fabric().faults().backoff_us(rtf.drops);
    s_us = static_cast<double>(bytes) * gbs_to_us_per_byte(bw);
    total_us = pp.L_us + rtt + s_us + q_us;
    std::memcpy(
        dest,
        world_->heap_[static_cast<std::size_t>(target_pe)].data() + src_off,
        bytes);
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      chk.on_get(pe(), world_->chk_space_, target_pe, src_off, bytes,
                 rank_->now());
    }
  });
  rank_->advance(total_us);
  // SHMEM gets were never traced (and adding a record would change existing
  // trace/CSV bytes), so they are counted through the metrics-only hook.
  eng.metrics().on_get(pe(), bytes);
  eng.record_advance_span(*rank_, simnet::SpanKind::kGet, t0, target_pe,
                          bytes, q_us, s_us);
}

void Ctx::wait_local(const char* what, util::FunctionRef<bool()> pred) {
  auto& eng = world_->engine_;
  auto& pend = world_->pending_[static_cast<std::size_t>(pe())];
  // Gate counter for this PE's signal waits (DESIGN.md §12): while I am
  // blocked here pending_ can only grow (barrier_all is collective, nobody
  // else drains my queue), and every growth bumps the counter.
  const std::uint64_t& ctr =
      world_->delivery_pushes_[static_cast<std::size_t>(pe())];
  for (;;) {
    bool ok = false;
    eng.perform(*rank_, [&] {
      world_->apply_locked(pe(), rank_->now());
      ok = pred();
    });
    if (ok) {
      rank_->bump_epoch();
      return;
    }
    eng.wait(
        *rank_, what,
        [&]() -> std::optional<double> {
          if (pend.empty()) return std::nullopt;
          double first = pend.front().arrival;
          for (const World::Delivery& d : pend) {
            first = std::min(first, d.arrival);
          }
          return first;
        },
        [&] { world_->apply_locked(pe(), rank_->now()); },
        runtime::WaitGate{&ctr, ctr + 1});
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
  chk.on_signal_wait(pe(), world_->chk_space_, off, bytes, now());
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
  const simnet::LogGP& pp = params();
  rank_->advance(pp.o_us);
  auto& eng = world_->engine_;
  const simnet::TimeUs t0 = rank_->now();
  eng.perform(*rank_, [&] {
    auto& outs = world_->outstanding_[static_cast<std::size_t>(pe())];
    simnet::TimeUs done = rank_->now();
    for (const World::Outstanding& o : outs) {
      done = std::max(done, o.remote_done);
    }
    outs.clear();
    if (done > rank_->now()) rank_->advance(done - rank_->now());
    auto& chk = eng.checker();
    if (chk.enabled() && world_->chk_space_ >= 0) {
      chk.on_flush(pe(), world_->chk_space_, /*target=*/-1);
    }
  });
  eng.record_advance_span(*rank_, simnet::SpanKind::kQuiet, t0, -1, 0);
  rank_->bump_epoch();
}

std::uint64_t Ctx::atomic_rmw(std::uint64_t target_off, std::uint64_t operand,
                              std::uint64_t compare, bool is_cas,
                              int target_pe) {
  MRL_CHECK(target_pe >= 0 && target_pe < n_pes());
  const simnet::LogGP& pp = params();
  rank_->advance(pp.atomic_o());
  auto& eng = world_->engine_;
  std::uint64_t old = 0;
  const simnet::TimeUs t0 = rank_->now();
  double total_us = 0;
  double q_us = 0;
  double s_us = 0;
  eng.perform(*rank_, [&] {
    MRL_CHECK(target_off + 8 <= world_->opt_.heap_bytes);
    auto* p = reinterpret_cast<std::uint64_t*>(
        world_->heap_[static_cast<std::size_t>(target_pe)].data() +
        target_off);
    old = *p;
    if (is_cas) {
      if (old == compare) *p = operand;
      eng.metrics().on_cas_attempt(pe(), old == compare);
    } else {
      *p = old + operand;
    }
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      chk.on_atomic(pe(), world_->chk_space_, target_pe, target_off,
                    rank_->now());
    }
    // Request/response through the fabric (atomics contend on link lanes,
    // e.g. the Summit X-Bus per-transaction occupancy).
    simnet::TransferParams req;
    req.src_ep = rank_->endpoint();
    req.dst_ep = eng.platform().endpoint_of_rank(target_pe, n_pes());
    req.src_rank = pe();
    req.bytes = 8;
    req.start_us = rank_->now();
    req.sw_latency_us = pp.atomic_L_us / 2;
    const simnet::TransferResult r1 = eng.fabric().transfer(req);
    simnet::TransferParams rsp = req;
    rsp.src_ep = req.dst_ep;
    rsp.dst_ep = req.src_ep;
    rsp.src_rank = target_pe;
    rsp.start_us = r1.arrival_us;
    const simnet::TransferResult r2 = eng.fabric().transfer(rsp);
    // Retry-with-backoff accounting: dropped attempts paid their retransmit
    // timeouts inside transfer(); the origin also backs off exponentially.
    const int drops = r1.drops + r2.drops;
    const double backoff = eng.fabric().faults().backoff_us(drops);
    total_us = r2.arrival_us - rank_->now() + backoff;
    // Decomposition over both legs; the dominant-queueing leg names the link.
    q_us = r1.queue_us + r2.queue_us + backoff;
    s_us = r1.ser_us + r2.ser_us;
    const std::int32_t dlink =
        r1.queue_us >= r2.queue_us ? r1.dlink : r2.dlink;
    eng.record_msg(simnet::MsgRecord{pe(), target_pe, 8, rank_->now(),
                                     rank_->now() + total_us,
                                     simnet::OpKind::kAtomic, rank_->epoch(),
                                     drops, q_us, s_us, dlink});
  });
  rank_->advance(total_us);
  eng.record_advance_span(*rank_, simnet::SpanKind::kAtomic, t0, target_pe, 8,
                          q_us, s_us);
  return old;
}

std::uint64_t Ctx::atomic_compare_swap(Sym<std::uint64_t> target,
                                       std::uint64_t compare,
                                       std::uint64_t value, int target_pe) {
  return atomic_rmw(target.offset, value, compare, /*is_cas=*/true, target_pe);
}

std::uint64_t Ctx::atomic_fetch_add(Sym<std::uint64_t> target,
                                    std::uint64_t add, int target_pe) {
  return atomic_rmw(target.offset, add, 0, /*is_cas=*/false, target_pe);
}

void Ctx::barrier_all() { sum_all_kind("barrier_all", 0.0); }

double Ctx::sum_all(double v) { return sum_all_kind("sum_all", v); }

double Ctx::sum_all_kind(const char* kind, double v) {
  const simnet::LogGP& pp = params();
  rank_->advance(pp.o_us);
  auto& eng = world_->engine_;
  const double rounds =
      std::ceil(std::log2(static_cast<double>(std::max(2, n_pes()))));
  const double cost = rounds * (2.0 * pp.o_us + pp.L_us);

  std::uint64_t my_gen = 0;
  eng.perform(*rank_, [&] {
    my_gen = world_->gen_;
    if (world_->entered_ == 0) {
      world_->acc_sum_ = 0;
      world_->max_enter_ = 0;
    }
    ++world_->entered_;
    world_->max_enter_ = std::max(world_->max_enter_, rank_->now());
    world_->acc_sum_ += v;
    if (world_->entered_ == n_pes()) {
      // barrier also implies quiet(): everything lands before it completes.
      simnet::TimeUs done = world_->max_enter_ + cost;
      for (int r = 0; r < n_pes(); ++r) {
        for (const World::Delivery& d :
             world_->pending_[static_cast<std::size_t>(r)]) {
          done = std::max(done, d.arrival);
        }
        world_->apply_locked(r, simnet::kTimeInf);
        world_->outstanding_[static_cast<std::size_t>(r)].clear();
      }
      World::CollSlot& slot = world_->done_[my_gen % 4];
      slot.gen = my_gen;
      slot.done_at = done;
      slot.sum = world_->acc_sum_;
      world_->entered_ = 0;
      ++world_->gen_;
    }
    auto& chk = eng.checker();
    if (chk.enabled()) {
      world_->chk_register_locked();
      // Enter AFTER the last entrant's apply loop above: applying reports
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
  const World::CollSlot& slot = world_->done_[my_gen % 4];
  // Gated on the barrier generation (see runtime::WaitGate, DESIGN.md §10).
  eng.wait(
      *rank_, "shmem.barrier_all",
      [&]() -> std::optional<double> {
        if (world_->gen_ <= my_gen) return std::nullopt;
        MRL_CHECK(slot.gen == my_gen);
        return slot.done_at;
      },
      {}, runtime::WaitGate{&world_->gen_, my_gen + 1});
  auto& chk = eng.checker();
  if (chk.enabled() && world_->chk_chan_ >= 0) {
    chk.on_collective_complete(world_->chk_chan_, pe(), my_gen);
  }
  rank_->bump_epoch();
  eng.metrics().on_collective(pe());
  return slot.sum;
}

void Ctx::local_access(std::uint64_t off, std::uint64_t bytes, bool is_write) {
  auto& chk = world_->engine_.checker();
  if (!chk.enabled() || world_->chk_space_ < 0) return;
  // A read overlapping a delivery that has arrived but was not yet applied
  // on this PE means the program skipped the wait_until/barrier that would
  // have drained it — exactly the missing-synchronization bug. Exactly one
  // rank executes at a time, so the direct scan is race-free and
  // deterministic.
  bool unapplied = false;
  for (const World::Delivery& d :
       world_->pending_[static_cast<std::size_t>(pe())]) {
    if (d.arrival > now()) continue;
    const bool data_hit =
        d.off < off + bytes && off < d.off + d.data_bytes;
    const bool sig_hit =
        d.has_signal && d.sig_off < off + bytes && off < d.sig_off + 8;
    if (data_hit || sig_hit) {
      unapplied = true;
      break;
    }
  }
  chk.on_local(pe(), world_->chk_space_, off, bytes, is_write, unapplied,
               now());
}

}  // namespace mrl::shmem
