// The shared RMA delivery core (src/rma/): the deferred-delivery queue
// against a naive oracle, on random streams and on streams shaped like
// real traffic, and the overflow-safe bounds test. The rest of Space is
// exercised through the runtimes (tests_mpi, tests_shmem); the barrier
// pins below fix, exactly, what every sync built on its rendezvous costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "rma/rma.hpp"
#include "shmem/shmem.hpp"
#include "simnet/platform.hpp"
#include "util/rng.hpp"

namespace mrl::rma {
namespace {

constexpr std::uint64_t kMem = 256;  // target memory bytes

// The oracle's view of one pending put: everything kept by value, applied
// by a stable sort of the arrived puts by arrival (push order breaks ties).
struct NaivePut {
  std::uint32_t id = 0;  // push index; also sent as the checker handle
  std::uint64_t off = 0;
  std::uint64_t bytes = 0;
  std::vector<std::byte> data;  // empty: not captured
  std::optional<std::uint64_t> sig_off;
  std::uint64_t sig_val = 0;
  simnet::TimeUs arrival = 0;
};

std::uint64_t payload_span(const NaivePut& p) {
  return p.data.size() + (p.sig_off ? 8 : 0);
}

class Oracle {
 public:
  void push(NaivePut p) { pending_.push_back(std::move(p)); }

  // Applies the puts that arrived by `cutoff`; returns their ids in
  // application order and the latest arrival (0 when none).
  std::vector<std::uint32_t> apply(simnet::TimeUs cutoff, std::byte* mem,
                                   simnet::TimeUs& latest) {
    std::vector<NaivePut> ready, rest;
    for (NaivePut& p : pending_) {
      (p.arrival <= cutoff ? ready : rest).push_back(std::move(p));
    }
    pending_ = std::move(rest);
    std::stable_sort(ready.begin(), ready.end(),
                     [](const NaivePut& a, const NaivePut& b) {
                       return a.arrival < b.arrival;
                     });
    std::vector<std::uint32_t> order;
    latest = 0;
    for (const NaivePut& p : ready) {
      if (!p.data.empty()) std::memcpy(mem + p.off, p.data.data(), p.bytes);
      if (p.sig_off) std::memcpy(mem + *p.sig_off, &p.sig_val, 8);
      latest = std::max(latest, p.arrival);
      order.push_back(p.id);
    }
    return order;
  }

  [[nodiscard]] std::optional<double> earliest() const {
    std::optional<double> e;
    for (const NaivePut& p : pending_) {
      if (!e || p.arrival < *e) e = p.arrival;
    }
    return e;
  }

  [[nodiscard]] bool arrived_overlaps(std::uint64_t off, std::uint64_t bytes,
                                      simnet::TimeUs now) const {
    for (const NaivePut& p : pending_) {
      if (p.arrival > now) continue;
      if (p.off < off + bytes && off < p.off + p.bytes) return true;
      if (p.sig_off && *p.sig_off < off + bytes && off < *p.sig_off + 8) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::uint64_t live_payload() const {
    std::uint64_t n = 0;
    for (const NaivePut& p : pending_) n += payload_span(p);
    return n;
  }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }

 private:
  std::vector<NaivePut> pending_;
};

// Randomized pushes (captured or not, zero-byte, with and without a fused
// signal, arrivals on a coarse grid so ties are common), partial applies at
// random cutoffs and full drains, checked step by step against the oracle:
// memory bytes, application order, latest arrival, size, earliest arrival,
// the overlap scan, the push gate and the payload buffer's compaction bound.
void run_stream(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  DeliveryQueue q;
  Oracle oracle;
  std::vector<std::byte> mem(kMem), want(kMem), scratch;
  std::uint32_t next_id = 0;
  simnet::TimeUs clock = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.uniform(10);
    if (op < 6) {
      NaivePut p;
      p.id = next_id++;
      p.bytes = rng.uniform(4) == 0 ? 0 : rng.uniform(32) + 1;
      p.off = rng.uniform(kMem - p.bytes + 1);
      const bool captured = rng.uniform(3) != 0;
      if (captured && p.bytes > 0) {
        p.data.resize(p.bytes);
        for (std::byte& b : p.data) {
          b = static_cast<std::byte>(rng.uniform(256));
        }
      }
      if (rng.uniform(2) == 0) {
        p.sig_off = rng.uniform(kMem / 8) * 8;
        p.sig_val = rng();
      }
      p.arrival = clock + 0.5 * static_cast<double>(rng.uniform(12));
      std::vector<std::byte> src(p.bytes, std::byte{0xEE});
      if (!p.data.empty()) src = p.data;
      q.push(p.off, p.bytes, captured ? src.data() : nullptr, p.arrival,
             check::PutHandles{p.id, p.id}, p.sig_off.value_or(kNoSignal),
             p.sig_val);
      oracle.push(std::move(p));
      ASSERT_EQ(*q.next_push().counter, next_id);
      ASSERT_EQ(q.next_push().threshold, next_id + 1u);
    } else {
      const bool drain = op == 9;
      const simnet::TimeUs cutoff =
          drain ? simnet::kTimeInf
                : clock + 0.5 * static_cast<double>(rng.uniform(8));
      std::vector<std::uint32_t> got;
      const simnet::TimeUs latest =
          q.apply(
              cutoff, mem.data(),
              [&](const Delivery& d) {
                EXPECT_EQ(d.chk.data, d.chk.sig);
                got.push_back(d.chk.data);
              },
              scratch);
      simnet::TimeUs want_latest = 0;
      const std::vector<std::uint32_t> order =
          oracle.apply(cutoff, want.data(), want_latest);
      ASSERT_EQ(got, order) << "step " << step;
      ASSERT_EQ(latest, want_latest) << "step " << step;
      ASSERT_EQ(mem, want) << "step " << step;
      if (drain) {
        ASSERT_EQ(q.size(), 0u);
      }
      // Compaction bound: the buffer holds the live bytes only, or less
      // than twice them.
      const std::uint64_t live = oracle.live_payload();
      ASSERT_TRUE(q.payload_bytes() == live || q.payload_bytes() < 2 * live)
          << "step " << step << ": " << q.payload_bytes() << " buffered for "
          << live << " live";
      if (!drain) clock += 0.5 * static_cast<double>(rng.uniform(4));
    }
    ASSERT_EQ(q.size(), oracle.size());
    ASSERT_EQ(q.earliest_arrival(), oracle.earliest());
    const std::uint64_t off = rng.uniform(kMem);
    const std::uint64_t bytes = rng.uniform(16) + 1;
    const simnet::TimeUs now =
        clock + 0.5 * static_cast<double>(rng.uniform(8));
    ASSERT_EQ(q.arrived_overlaps(off, bytes, now),
              oracle.arrived_overlaps(off, bytes, now))
        << "step " << step;
  }
}

TEST(DeliveryQueue, MatchesStableSortOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_stream(seed);
    if (HasFatalFailure()) return;
  }
}

// Pushes `p` to both the queue and the oracle.
void push_both(DeliveryQueue& q, Oracle& oracle, NaivePut p) {
  q.push(p.off, p.bytes, p.data.empty() ? nullptr : p.data.data(), p.arrival,
         check::PutHandles{p.id, p.id}, p.sig_off.value_or(kNoSignal),
         p.sig_val);
  oracle.push(std::move(p));
}

// One apply on both; checks order, latest arrival, memory and the payload
// compaction bound. Returns whether the apply compacted a non-empty buffer.
bool apply_both(DeliveryQueue& q, Oracle& oracle, simnet::TimeUs cutoff,
                std::vector<std::byte>& mem, std::vector<std::byte>& want,
                std::vector<std::byte>& scratch) {
  const std::size_t buffered = q.payload_bytes();
  std::vector<std::uint32_t> got;
  const simnet::TimeUs latest = q.apply(
      cutoff, mem.data(),
      [&](const Delivery& d) { got.push_back(d.chk.data); }, scratch);
  simnet::TimeUs want_latest = 0;
  EXPECT_EQ(got, oracle.apply(cutoff, want.data(), want_latest));
  EXPECT_EQ(latest, want_latest);
  EXPECT_EQ(mem, want);
  EXPECT_EQ(q.size(), oracle.size());
  const std::uint64_t live = oracle.live_payload();
  EXPECT_TRUE(q.payload_bytes() == live || q.payload_bytes() < 2 * live)
      << q.payload_bytes() << " buffered for " << live << " live";
  return q.size() > 0 && q.payload_bytes() < buffered;
}

// Traffic shaped like a window's or a heap's: several origins, each a
// FIFO-monotone stream (clamp_fifo) with its own latency, interleaved in
// issue order, so pushes arrive out of order across origins and tie within
// and across them. Partial cutoffs leave puts of several origins behind,
// so compaction runs on entries whose order is not buffer order.
TEST(DeliveryQueue, InterleavedFifoOriginsMatchOracle) {
  constexpr int kOrigins = 4;
  Xoshiro256 rng(25);
  DeliveryQueue q;
  Oracle oracle;
  std::vector<std::byte> mem(kMem), want(kMem), scratch;
  std::array<simnet::TimeUs, kOrigins> last{};
  std::uint32_t next_id = 0;
  simnet::TimeUs clock = 0;
  int compactions = 0;
  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE(step);
    if (rng.uniform(4) != 0) {
      const auto o = static_cast<std::size_t>(rng.uniform(kOrigins));
      NaivePut p;
      p.id = next_id++;
      p.bytes = rng.uniform(24) + 1;
      p.off = rng.uniform(kMem - p.bytes + 1);
      if (rng.uniform(4) != 0) {
        p.data.resize(p.bytes);
        for (std::byte& b : p.data) {
          b = static_cast<std::byte>(rng.uniform(256));
        }
      }
      if (rng.uniform(2) == 0) {
        p.sig_off = rng.uniform(kMem / 8) * 8;
        p.sig_val = rng();
      }
      const simnet::TimeUs raw =
          clock + 0.5 * static_cast<double>(2 * o + rng.uniform(3));
      last[o] = std::max(last[o], raw);
      p.arrival = last[o];
      push_both(q, oracle, std::move(p));
      clock += 0.5 * static_cast<double>(rng.uniform(2));
    } else {
      const simnet::TimeUs cutoff =
          rng.uniform(10) == 0
              ? simnet::kTimeInf
              : clock + 0.5 * static_cast<double>(rng.uniform(6)) - 2.0;
      if (apply_both(q, oracle, cutoff, mem, want, scratch)) ++compactions;
      if (HasFailure()) return;
    }
    ASSERT_EQ(q.earliest_arrival(), oracle.earliest());
    const std::uint64_t off = rng.uniform(kMem);
    const simnet::TimeUs now =
        clock + 0.5 * static_cast<double>(rng.uniform(8)) - 2.0;
    ASSERT_EQ(q.arrived_overlaps(off, 8, now),
              oracle.arrived_overlaps(off, 8, now));
  }
  EXPECT_GT(compactions, 0);
}

// A sweep point's epoch: one origin's 10^4 in-order puts, ties included,
// drained at once by a fence or barrier.
TEST(DeliveryQueue, LongInOrderRunDrainsAtOnce) {
  constexpr std::uint32_t kPuts = 10000;
  Xoshiro256 rng(10000);
  DeliveryQueue q;
  Oracle oracle;
  std::vector<std::byte> mem(kMem), want(kMem), scratch;
  simnet::TimeUs arrival = 1.0;
  for (std::uint32_t i = 0; i < kPuts; ++i) {
    NaivePut p;
    p.id = i;
    p.bytes = 8;
    p.off = rng.uniform(kMem / 8) * 8;
    p.data.resize(p.bytes, static_cast<std::byte>(i));
    p.sig_off = rng.uniform(kMem / 8) * 8;
    p.sig_val = i;
    arrival += 0.25 * static_cast<double>(rng.uniform(2));
    p.arrival = arrival;
    push_both(q, oracle, std::move(p));
  }
  ASSERT_EQ(q.size(), kPuts);
  EXPECT_EQ(q.earliest_arrival(), oracle.earliest());
  EXPECT_EQ(q.payload_bytes(), kPuts * 16u);
  apply_both(q, oracle, simnet::kTimeInf, mem, want, scratch);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.payload_bytes(), 0u);
  EXPECT_FALSE(q.earliest_arrival().has_value());
}

TEST(DeliveryQueue, EmptyApplyReturnsZeroAndTouchesNothing) {
  DeliveryQueue q;
  std::vector<std::byte> scratch;
  int calls = 0;
  EXPECT_EQ(q.apply(simnet::kTimeInf, nullptr,
                    [&](const Delivery&) { ++calls; }, scratch),
            0.0);
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(q.earliest_arrival().has_value());
  EXPECT_EQ(*q.next_push().counter, 0u);
}

TEST(Bounds, InBoundsIsOverflowSafe) {
  EXPECT_TRUE(in_bounds(0, 0, 0));
  EXPECT_TRUE(in_bounds(8, 8, 16));
  EXPECT_FALSE(in_bounds(9, 8, 16));
  EXPECT_FALSE(in_bounds(0, 17, 16));
  // off + bytes wraps around to 8, which a naive sum would accept.
  EXPECT_FALSE(in_bounds(~0ULL - 7, 16, 64));
  EXPECT_FALSE(in_bounds(8, ~0ULL - 3, 64));
}

// --- barrier pins -----------------------------------------------------------
// MPI barriers, create_win, window fences and SHMEM barriers with staggered
// entrants: each rank's exact end clock, its metrics `collectives` / `syncs`
// counts and the kind of every span it recorded. A fence or barrier_all
// with puts pending completes at the later of the rendezvous and the
// drain, so those cases size their puts to arrive after the rendezvous.

struct SyncPin {
  std::vector<double> end;  ///< per-rank clock after the last sync
  std::vector<std::uint64_t> collectives;
  std::vector<std::uint64_t> syncs;
  std::vector<std::string> spans;  ///< "r<rank> <kind>" in record order
};

runtime::EngineOptions pin_options() {
  runtime::EngineOptions o;
  o.metrics = true;
  o.spans = true;
  return o;
}

SyncPin collect(const runtime::Engine& eng, std::vector<double> end) {
  SyncPin p;
  p.end = std::move(end);
  const runtime::MetricsReport rep = eng.metrics_report();
  for (const auto& r : rep.ranks) {
    p.collectives.push_back(r.ops.collectives);
    p.syncs.push_back(r.ops.syncs);
  }
  for (const simnet::SpanRecord& s : eng.spans().records()) {
    std::string span = "r";
    span += std::to_string(s.rank);
    span += ' ';
    span += simnet::to_string(s.kind);
    p.spans.push_back(span);
  }
  return p;
}

/// Compares exactly and prints the actual clocks at full precision.
void expect_pin(const SyncPin& got, const std::vector<double>& end,
                const std::vector<std::uint64_t>& collectives,
                const std::vector<std::uint64_t>& syncs,
                const std::vector<std::string>& spans) {
  for (std::size_t i = 0; i < got.end.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", got.end[i]);
    std::string where = "rank ";
    where += std::to_string(i);
    where += " end ";
    where += buf;
    SCOPED_TRACE(where);
    ASSERT_LT(i, end.size());
    EXPECT_EQ(got.end[i], end[i]);
  }
  EXPECT_EQ(got.end.size(), end.size());
  EXPECT_EQ(got.collectives, collectives);
  EXPECT_EQ(got.syncs, syncs);
  EXPECT_EQ(got.spans, spans);
}

TEST(BarrierPins, MpiBarrier) {
  runtime::Engine eng(simnet::Platform::perlmutter_cpu(1), 4, pin_options());
  std::vector<double> end(4);
  const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
    c.compute(1.5 * (3 - c.rank()));
    c.barrier();
    c.compute(0.25 * c.rank());
    c.barrier();
    end[static_cast<std::size_t>(c.rank())] = c.now();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const double t = 19.050000000000001;
  expect_pin(collect(eng, end), {t, t, t, t}, {2, 2, 2, 2}, {2, 2, 2, 2},
             {"r0 collective", "r1 collective", "r2 collective",
              "r3 collective", "r0 collective", "r1 collective",
              "r2 collective", "r3 collective"});
}

TEST(BarrierPins, CreateWin) {
  runtime::Engine eng(simnet::Platform::perlmutter_cpu(1), 3, pin_options());
  std::vector<double> end(3);
  const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    c.compute(2.0 * c.rank());
    c.create_win(buf.data(), buf.size() * sizeof(double));
    end[static_cast<std::size_t>(c.rank())] = c.now();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const double t = 10.9;
  expect_pin(collect(eng, end), {t, t, t}, {1, 1, 1}, {1, 1, 1},
             {"r0 collective", "r1 collective", "r2 collective"});
}

TEST(BarrierPins, WinFenceDrainsTwoOrigins) {
  runtime::Engine eng(simnet::Platform::perlmutter_cpu(1), 3, pin_options());
  std::vector<double> end(3);
  constexpr std::size_t kN = 1 << 15;  // 256 KiB per origin
  const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
    std::vector<double> buf(2 * kN, 0.0);
    mpi::WinHandle win = c.create_win(buf.data(), buf.size() * sizeof(double));
    const std::vector<double> src(kN, 1.0 + c.rank());
    if (c.rank() < 2) {
      c.compute(0.5 + 3.0 * c.rank());
      win.put(src.data(), kN * sizeof(double), 2,
              static_cast<std::uint64_t>(c.rank()) * kN * sizeof(double));
    } else {
      c.compute(1.25);
    }
    win.fence();
    end[static_cast<std::size_t>(c.rank())] = c.now();
    if (c.rank() == 2) {
      EXPECT_EQ(buf[0], 1.0);
      EXPECT_EQ(buf[2 * kN - 1], 2.0);
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  // The drain sets the end: rank 1's put lands after the rendezvous.
  const double t = 21.242000000000001;
  expect_pin(collect(eng, end), {t, t, t}, {1, 1, 1}, {2, 2, 2},
             {"r0 collective", "r1 collective", "r2 collective", "r0 fence",
              "r1 fence", "r2 fence"});
}

TEST(BarrierPins, ShmemBarrierAllDrainsPutSignal) {
  runtime::Engine eng(simnet::Platform::perlmutter_gpu(), 3, pin_options());
  std::vector<double> end(3);
  constexpr std::uint64_t kN = 1 << 15;
  const auto r = shmem::World::run(eng, [&](shmem::Ctx& s) {
    auto data = s.allocate<double>(2 * kN);
    auto sig = s.allocate<std::uint64_t>(2);
    const std::vector<double> src(kN, 1.0 + s.pe());
    if (s.pe() < 2) {
      s.compute(0.5 + 3.0 * s.pe());
      const auto me = static_cast<std::uint64_t>(s.pe());
      s.put_signal_nbi(data.at(me * kN), src.data(), kN, sig.at(me), me + 7,
                       2);
    } else {
      s.compute(1.25);
    }
    s.barrier_all();
    end[static_cast<std::size_t>(s.pe())] = s.now();
    if (s.pe() == 2) {
      EXPECT_EQ(s.local(data)[0], 1.0);
      EXPECT_EQ(s.local(data)[2 * kN - 1], 2.0);
      EXPECT_EQ(s.local(sig)[0], 7u);
      EXPECT_EQ(s.local(sig)[1], 8u);
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  // The drain sets the end: PE 1's put lands after the rendezvous.
  const double t = 17.986080000000001;
  expect_pin(collect(eng, end), {t, t, t}, {1, 1, 1}, {1, 1, 1},
             {"r0 barrier", "r1 barrier", "r2 barrier"});
}

}  // namespace
}  // namespace mrl::rma
