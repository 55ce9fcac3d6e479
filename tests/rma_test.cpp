// The shared RMA delivery core (src/rma/): the deferred-delivery queue
// against a naive oracle, on random streams and on streams shaped like
// real traffic, and the overflow-safe bounds test. Space and
// Rendezvous are exercised through the runtimes (tests_mpi, tests_shmem).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "rma/rma.hpp"
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

}  // namespace
}  // namespace mrl::rma
