// The shared RMA delivery core (src/rma/): the deferred-delivery queue
// against a naive oracle, and the overflow-safe bounds test. Space and
// Rendezvous are exercised through the runtimes (tests_mpi, tests_shmem).
#include <gtest/gtest.h>

#include <algorithm>
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
  std::vector<std::byte> mem(kMem), want(kMem);
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
          q.apply(cutoff, mem.data(), [&](const Delivery& d) {
            EXPECT_EQ(d.chk.data, d.chk.sig);
            got.push_back(d.chk.data);
          });
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

TEST(DeliveryQueue, EmptyApplyReturnsZeroAndTouchesNothing) {
  DeliveryQueue q;
  int calls = 0;
  EXPECT_EQ(q.apply(simnet::kTimeInf, nullptr,
                    [&](const Delivery&) { ++calls; }),
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
