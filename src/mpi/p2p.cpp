// Two-sided point-to-point: eager-protocol Isend/Irecv with FIFO delivery
// and MPI-style (source, tag) matching including ANY_SOURCE / ANY_TAG.
#include <algorithm>
#include <cstring>

#include "mpi/comm.hpp"
#include "util/status.hpp"

namespace mrl::mpi {

namespace {
bool tag_matches(const Msg& m, int tag) {
  return tag == kAnyTag || m.tag == tag;
}

// The queue of `src`, or where it would be inserted (queues ascend by src).
template <class Queues>
auto lower_bound_src(Queues& queues, int src) {
  return std::lower_bound(
      queues.begin(), queues.end(), src,
      [](const auto& q, int s) { return q.src < s; });
}
}  // namespace

void Mailbox::push(Msg m) {
  auto q = lower_bound_src(queues_, m.src);
  if (q == queues_.end() || q->src != m.src) {
    q = queues_.insert(q, SourceQueue{m.src, 0, {}});
  }
  q->msgs.push_back(std::move(m));
}

const Msg* Mailbox::find(int src, int tag) const {
  if (src != kAnySource) {
    const auto q = lower_bound_src(queues_, src);
    if (q == queues_.end() || q->src != src) return nullptr;
    for (std::size_t i = q->head; i < q->msgs.size(); ++i) {
      if (tag_matches(q->msgs[i], tag)) return &q->msgs[i];
    }
    return nullptr;
  }
  // Queues ascend by source, so a later queue wins only with a strictly
  // earlier arrival; arrivals ascend within a queue, so each scan stops at
  // the first message that can no longer win.
  const Msg* best = nullptr;
  for (const SourceQueue& q : queues_) {
    for (std::size_t i = q.head; i < q.msgs.size(); ++i) {
      const Msg& m = q.msgs[i];
      if (best != nullptr && m.arrival_us >= best->arrival_us) break;
      if (tag_matches(m, tag)) {
        best = &m;
        break;
      }
    }
  }
  return best;
}

void Mailbox::take(const Msg* m) {
  const auto q = lower_bound_src(queues_, m->src);
  const auto i = static_cast<std::size_t>(m - q->msgs.data());
  if (i == q->head) {
    ++q->head;
  } else {
    q->msgs.erase(q->msgs.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (q->head == q->msgs.size()) {
    queues_.erase(q);
  } else if (2 * q->head >= q->msgs.size()) {
    // Drop the consumed prefix once it is half the queue: each move is paid
    // for by an earlier consume, so taking stays O(1) amortized.
    q->msgs.erase(q->msgs.begin(),
                  q->msgs.begin() + static_cast<std::ptrdiff_t>(q->head));
    q->head = 0;
  }
}

Request Comm::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  MRL_CHECK(dst >= 0 && dst < size());
  MRL_CHECK(tag >= 0);
  const simnet::LogGP& pp = p2p_params();
  rank_->advance(pp.o_us);  // sender overhead

  Request req;
  req.kind_ = Request::Kind::kSend;
  auto& eng = world_->engine_;
  eng.perform(*rank_, [&] {
    simnet::TransferParams tp;
    tp.src_ep = rank_->endpoint();
    tp.dst_ep = eng.platform().endpoint_of_rank(dst, size());
    tp.src_rank = rank();
    tp.pump_gbs = eng.platform().rank_pump_gbs();
    tp.bytes = bytes;
    tp.start_us = rank_->now();
    tp.sw_latency_us = pp.L_us;
    tp.inj_gap_us = pp.g_us;
    tp.per_stream_gbs = pp.per_stream_gbs;
    const simnet::TransferResult tr = eng.fabric().transfer(tp);

    Msg m;
    m.src = rank();
    m.tag = tag;
    m.seq = world_->fifo_seq_.at(rank(), dst)++;
    m.arrival_us =
        rma::clamp_fifo(world_->fifo_last_, rank(), dst, tr.arrival_us);
    m.bytes = bytes;
    if (bytes > 0 && world_->capture_payloads) {
      const auto* p = static_cast<const std::byte*>(buf);
      m.payload.assign(p, p + bytes);
    }
    eng.record_msg(simnet::MsgRecord{rank(), dst, bytes, rank_->now(),
                                     m.arrival_us, simnet::OpKind::kSend,
                                     rank_->epoch(), tr.drops, tr.queue_us,
                                     tr.ser_us, tr.dlink});
    // Happens-before edge: the sender's clock snapshot rides with the
    // message, keyed by the per-pair FIFO seq (matching can be tag-filtered
    // and consume out of FIFO order, so the join is seq-keyed too).
    eng.checker().on_send(rank(), dst, m.seq);
    world_->mailbox_[static_cast<std::size_t>(dst)].push(std::move(m));
    // Advance dst's inbox gate counter: a receiver parked in a gated recv
    // wait is only re-evaluated when this moves (match_and_consume).
    ++world_->inbox_pushes_[static_cast<std::size_t>(dst)];
    req.send_complete_us = tr.inject_free_us;
  });
  req.done_ = false;
  return req;
}

void Comm::check_recv_selectors(int src, int tag) const {
  MRL_CHECK(src == kAnySource || (src >= 0 && src < size()));
  MRL_CHECK(tag == kAnyTag || tag >= 0);
}

Request Comm::irecv(void* buf, std::uint64_t bytes, int src, int tag) {
  check_recv_selectors(src, tag);
  Request req;
  req.kind_ = Request::Kind::kRecv;
  req.buf = buf;
  req.max_bytes = bytes;
  req.src = src;
  req.tag = tag;
  return req;  // matching happens at wait time (in post order)
}

RecvInfo Comm::match_and_consume(void* buf, std::uint64_t max_bytes, int src,
                                 int tag) {
  auto& eng = world_->engine_;
  auto& box = world_->mailbox_[static_cast<std::size_t>(rank())];

  // Gate the wait on the message-arrival counter for the channel(s) this
  // receive can match (DESIGN.md §12): a specific-source receive can only
  // become matchable when src pushes again (fifo_seq_ is bumped at every
  // push, and PairMap::at() references are stable), an ANY_SOURCE receive
  // when anyone pushes to this rank's inbox. A push with a non-matching tag
  // wakes the gate once and the engine re-parks the waiter at the next
  // counter value — no per-perform re-evaluation either way.
  const std::uint64_t& ctr =
      src == kAnySource
          ? world_->inbox_pushes_[static_cast<std::size_t>(rank())]
          : world_->fifo_seq_.at(src, rank());

  RecvInfo info;
  eng.wait(
      *rank_, "recv", runtime::WaitGate{&ctr, ctr + 1},
      [&]() -> std::optional<double> {
        const Msg* m = box.find(src, tag);
        if (m == nullptr) return std::nullopt;
        return m->arrival_us;
      },
      [&] {
        const Msg* m = box.find(src, tag);
        MRL_CHECK(m != nullptr);
        MRL_CHECK_MSG(m->bytes <= max_bytes,
                      "receive buffer too small for matched message");
        if (!m->payload.empty()) {
          std::memcpy(buf, m->payload.data(), m->payload.size());
        }
        info.src = m->src;
        info.tag = m->tag;
        info.bytes = m->bytes;
        info.arrival_us = m->arrival_us;
        eng.checker().on_recv(rank(), m->src, m->seq);
        box.take(m);
      });
  rank_->advance(p2p_params().o_us);  // receiver overhead
  eng.metrics().on_recv(rank(), info.bytes);
  return info;
}

void Comm::wait(Request& req) {
  switch (req.kind()) {
    case Request::Kind::kSend:
      if (!req.done_) {
        if (req.send_complete_us > rank_->now()) {
          // Draining the injection pipe is pure sender-side serialization.
          const simnet::TimeUs t0 = rank_->now();
          rank_->advance(req.send_complete_us - t0);
          world_->engine_.record_advance_span(
              *rank_, simnet::SpanKind::kSendDrain, t0, -1, 0, /*q_us=*/0,
              /*s_us=*/req.send_complete_us - t0);
        }
        req.done_ = true;
      }
      break;
    case Request::Kind::kRecv:
      if (!req.done_) {
        req.info_ =
            match_and_consume(req.buf, req.max_bytes, req.src, req.tag);
        req.done_ = true;
      }
      break;
    case Request::Kind::kInvalid:
      MRL_CHECK_MSG(false, "wait on invalid request");
  }
}

void Comm::waitall(std::span<Request> reqs) {
  for (Request& r : reqs) wait(r);
  rank_->bump_epoch();
}

void Comm::send(const void* buf, std::uint64_t bytes, int dst, int tag) {
  Request r = isend(buf, bytes, dst, tag);
  wait(r);
}

RecvInfo Comm::recv(void* buf, std::uint64_t bytes, int src, int tag) {
  check_recv_selectors(src, tag);
  RecvInfo info = match_and_consume(buf, bytes, src, tag);
  rank_->bump_epoch();
  return info;
}

}  // namespace mrl::mpi
