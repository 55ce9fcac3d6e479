// minimpi semantics: matching, FIFO, timing, windows, atomics, collectives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "simnet/platform.hpp"

namespace mrl::mpi {
namespace {

using runtime::Engine;

simnet::Platform plat() { return simnet::Platform::perlmutter_cpu(); }

TEST(P2P, SendRecvDeliversPayload) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<double> buf(16);
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 1.0);
      c.send(buf.data(), buf.size() * sizeof(double), 1, 7);
    } else {
      const RecvInfo info =
          c.recv(buf.data(), buf.size() * sizeof(double), 0, 7);
      EXPECT_EQ(info.src, 0);
      EXPECT_EQ(info.tag, 7);
      EXPECT_EQ(info.bytes, 16 * sizeof(double));
      for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(buf[i], i + 1.0);
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
}

TEST(P2P, SingleSmallMessageLatencyMatchesCalibration) {
  // Perlmutter CPU two-sided: recv completes at
  // o_send + hop(0.25) + ser(~0) + L(2.7) + o_recv = ~3.55 us.
  Engine eng(plat(), 2);
  double recv_done = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    double x = 42.0;
    if (c.rank() == 0) {
      c.send(&x, sizeof(x), 1, 0);
    } else {
      c.recv(&x, sizeof(x), 0, 0);
      recv_done = c.now();
    }
  });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(recv_done, 3.55, 0.1);
}

TEST(P2P, AnySourceMatchesEarliestArrival) {
  Engine eng(plat(), 3);
  const auto r = World::run(eng, [](Comm& c) {
    int v = c.rank();
    if (c.rank() == 1 || c.rank() == 2) {
      if (c.rank() == 2) c.compute(100.0);  // rank 2 sends much later
      c.send(&v, sizeof(v), 0, 0);
    } else {
      int got = -1;
      const RecvInfo a = c.recv(&got, sizeof(got), kAnySource, kAnyTag);
      EXPECT_EQ(a.src, 1);  // rank 1's message arrives first
      EXPECT_EQ(got, 1);
      const RecvInfo b = c.recv(&got, sizeof(got), kAnySource, kAnyTag);
      EXPECT_EQ(b.src, 2);
      EXPECT_EQ(got, 2);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, TagSelectivity) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      int a = 10, b = 20;
      c.send(&a, sizeof(a), 1, /*tag=*/5);
      c.send(&b, sizeof(b), 1, /*tag=*/6);
    } else {
      int got = 0;
      c.recv(&got, sizeof(got), 0, 6);  // tag 6 first despite arriving second
      EXPECT_EQ(got, 20);
      c.recv(&got, sizeof(got), 0, 5);
      EXPECT_EQ(got, 10);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, FifoPerPairEvenWithMixedSizes) {
  // A big message followed by a tiny one from the same sender must not be
  // overtaken (FIFO clamping).
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> big(4 << 20);
      int tiny = 99;
      c.send(big.data(), big.size(), 1, 0);
      c.send(&tiny, sizeof(tiny), 1, 0);
    } else {
      std::vector<std::byte> big(4 << 20);
      int tiny = 0;
      const RecvInfo first = c.recv(big.data(), big.size(), 0, 0);
      const RecvInfo second = c.recv(&tiny, sizeof(tiny), 0, 0);
      EXPECT_EQ(first.bytes, big.size());
      EXPECT_EQ(tiny, 99);
      EXPECT_GE(second.arrival_us, first.arrival_us);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, WaitallCompletesAllRequests) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    constexpr int kN = 8;
    std::vector<int> vals(kN);
    std::vector<Request> reqs;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        vals[i] = i * i;
        reqs.push_back(c.isend(&vals[i], sizeof(int), 1, i));
      }
      c.waitall(reqs);
    } else {
      for (int i = 0; i < kN; ++i) {
        reqs.push_back(c.irecv(&vals[i], sizeof(int), 0, i));
      }
      c.waitall(reqs);
      for (int i = 0; i < kN; ++i) EXPECT_EQ(vals[i], i * i);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 1) {
      int x;
      c.recv(&x, sizeof(x), 0, 0);  // nobody sends
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kDeadlock);
}

TEST(Collective, BarrierSynchronizesClocks) {
  Engine eng(plat(), 4);
  std::vector<double> after(4);
  const auto r = World::run(eng, [&](Comm& c) {
    c.compute(c.rank() * 10.0);
    c.barrier();
    after[static_cast<std::size_t>(c.rank())] = c.now();
  });
  ASSERT_TRUE(r.ok());
  for (int i = 1; i < 4; ++i) EXPECT_DOUBLE_EQ(after[0], after[i]);
  EXPECT_GT(after[0], 30.0);  // at least the slowest entrant
}

TEST(Collective, RepeatedCollectivesKeepWorking) {
  // More barriers than the rendezvous keeps generations, with a different
  // slowest entrant each time, so its result ring wraps twice.
  Engine eng(plat(), 4);
  std::vector<std::vector<double>> after(10, std::vector<double>(4));
  const auto r = World::run(eng, [&](Comm& c) {
    for (int i = 0; i < 10; ++i) {
      c.compute(((c.rank() + i) % 4) * 2.0);
      c.barrier();
      after[static_cast<std::size_t>(i)][static_cast<std::size_t>(c.rank())] =
          c.now();
    }
  });
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    const auto& t = after[static_cast<std::size_t>(i)];
    for (int k = 1; k < 4; ++k) EXPECT_EQ(t[0], t[k]) << i;
    if (i > 0) {
      EXPECT_GT(t[0], after[static_cast<std::size_t>(i - 1)][0] + 6.0) << i;
    }
  }
}

TEST(Rma, PutVisibleAfterFence) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<double> window(8, 0.0);
    WinHandle win = c.create_win(window.data(), window.size() * sizeof(double));
    double payload = 3.25;
    if (c.rank() == 0) {
      win.put(&payload, sizeof(payload), 1, 2 * sizeof(double));
    }
    win.fence();
    if (c.rank() == 1) {
      EXPECT_DOUBLE_EQ(window[2], 3.25);
      EXPECT_DOUBLE_EQ(window[0], 0.0);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, PutNotVisibleBeforeSync) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(2, 0);
    WinHandle win =
        c.create_win(window.data(), window.size() * sizeof(std::uint64_t));
    if (c.rank() == 0) {
      std::uint64_t one = 1;
      win.put(&one, sizeof(one), 1, 0);
      win.flush(1);
      // Tell rank 1 (two-sided) that the put has fully completed.
      int go = 1;
      c.send(&go, sizeof(go), 1, 0);
    } else {
      // Window memory must stay stale until we sync, even though the put
      // has remotely completed (separate-memory RMA model).
      int go = 0;
      c.recv(&go, sizeof(go), 0, 0);
      EXPECT_EQ(window[0], 0u);
      win.sync();
      EXPECT_EQ(window[0], 1u);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, FlushAdvancesClockToRemoteCompletion) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::byte> window(1 << 20);
    WinHandle win = c.create_win(window.data(), window.size());
    if (c.rank() == 0) {
      std::vector<std::byte> buf(1 << 20);
      const double t0 = c.now();
      win.put(buf.data(), buf.size(), 1, 0);
      const double after_put = c.now();
      win.flush(1);
      const double after_flush = c.now();
      // The nonblocking put costs ~o; the flush must absorb latency + 1 MiB
      // serialization (~32.8 us at 32 GB/s).
      EXPECT_LT(after_put - t0, 1.0);
      EXPECT_GT(after_flush - t0, 30.0);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, WaitAnyUnappliedWakesOnArrival) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(4, 0);
    WinHandle win =
        c.create_win(window.data(), window.size() * sizeof(std::uint64_t));
    if (c.rank() == 0) {
      c.compute(25.0);  // delay so receiver genuinely blocks
      std::uint64_t v = 7;
      win.put(&v, sizeof(v), 1, 3 * sizeof(std::uint64_t));
    } else {
      win.wait_any_unapplied();
      EXPECT_EQ(window[3], 7u);
      EXPECT_GT(c.now(), 25.0);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, CompareAndSwapSemantics) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(1, 5);
    WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(win.compare_and_swap(4, 9, 1, 0), 5u);  // mismatch: no swap
      EXPECT_EQ(win.compare_and_swap(5, 9, 1, 0), 5u);  // match: swaps
      EXPECT_EQ(win.compare_and_swap(9, 1, 1, 0), 9u);
    }
    c.barrier();
    if (c.rank() == 1) {
      EXPECT_EQ(window[0], 1u);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, FetchAddAccumulatesAcrossRanks) {
  Engine eng(plat(), 8);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(1, 0);
    WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
    c.barrier();
    if (c.rank() != 0) {
      win.fetch_add(static_cast<std::uint64_t>(c.rank()), 0, 0);
    }
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(window[0], 28u);  // 1+..+7
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, CasCostMatchesPaperCalibration) {
  // Perlmutter CPU one-sided CAS: ~2 us ("one CAS in 2 us", Sec III-C).
  Engine eng(plat(), 2);
  double per_op = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    std::vector<std::uint64_t> window(1, 0);
    WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
    c.barrier();
    if (c.rank() == 0) {
      constexpr int kReps = 32;
      const double t0 = c.now();
      for (int i = 0; i < kReps; ++i) {
        win.fetch_add(1, 1, 0);
      }
      per_op = (c.now() - t0) / kReps;
    }
    c.barrier();
  });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(per_op, 2.0, 0.4);
}

TEST(Rma, OneSidedUsesItsOwnLogGP) {
  // The 4-op one-sided pattern (put, flush, put, flush) on Perlmutter must
  // land near the paper's 5 us per message (Fig 6b).
  Engine eng(plat(), 2);
  double per_msg = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    std::vector<std::byte> window(4096);
    WinHandle win = c.create_win(window.data(), window.size());
    c.barrier();
    if (c.rank() == 0) {
      std::vector<std::byte> data(100 * 8);  // ~100 words, like SpTRSV
      std::uint64_t sig = 1;
      constexpr int kReps = 16;
      const double t0 = c.now();
      for (int i = 0; i < kReps; ++i) {
        win.put(data.data(), data.size(), 1, 0);
        win.flush(1);
        win.put(&sig, sizeof(sig), 1, 2048, simnet::OpKind::kSignal);
        win.flush(1);
      }
      per_msg = (c.now() - t0) / kReps;
    }
    c.barrier();
  });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(per_msg, 5.0, 1.0);
}

TEST(P2P, ZeroByteMessages) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(nullptr, 0, 1, 3);
    } else {
      const RecvInfo info = c.recv(nullptr, 0, 0, 3);
      EXPECT_EQ(info.bytes, 0u);
      EXPECT_GT(info.arrival_us, 0.0);  // still pays latency
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, SelfSendMatchesOwnMailbox) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      int v = 77;
      Request req = c.isend(&v, sizeof(v), 0, 0);
      int got = 0;
      c.recv(&got, sizeof(got), 0, 0);
      EXPECT_EQ(got, 77);
      c.wait(req);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, ManyTagsMatchIndependently) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    constexpr int kN = 20;
    if (c.rank() == 0) {
      for (int t = 0; t < kN; ++t) {
        int v = 1000 + t;
        c.send(&v, sizeof(v), 1, t);
      }
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      for (int t = kN - 1; t >= 0; --t) {
        int got = 0;
        c.recv(&got, sizeof(got), 0, t);
        EXPECT_EQ(got, 1000 + t);
      }
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, ReceiveBufferTooSmallAborts) {
  Engine eng(plat(), 2);
  EXPECT_DEATH(
      {
        auto res = World::run(eng, [](Comm& c) {
          double big[8] = {};
          if (c.rank() == 0) c.send(big, sizeof(big), 1, 0);
          if (c.rank() == 1) {
            double small[2];
            c.recv(small, sizeof(small), 0, 0);
          }
        });
        (void)res;
      },
      "receive buffer too small");
}

TEST(P2P, RecvRejectsInvalidSelectors) {
  // A negative tag other than kAnyTag can never match (isend requires
  // tag >= 0) and a source outside [0, size) names no rank: both abort at
  // the receive instead of parking until the engine reports a deadlock.
  auto run_recv = [](int src, int tag) {
    Engine eng(plat(), 2);
    auto res = World::run(eng, [&](Comm& c) {
      int x = 0;
      if (c.rank() == 1) c.recv(&x, sizeof(x), src, tag);
    });
    (void)res;
  };
  EXPECT_DEATH(run_recv(0, -7), "MRL_CHECK failed: tag == kAnyTag");
  EXPECT_DEATH(run_recv(-2, 0), "MRL_CHECK failed: src == kAnySource");
  EXPECT_DEATH(run_recv(2, kAnyTag), "MRL_CHECK failed: src == kAnySource");
}

TEST(P2P, IrecvRejectsInvalidSelectors) {
  auto run_irecv = [](int src, int tag) {
    Engine eng(plat(), 2);
    auto res = World::run(eng, [&](Comm& c) {
      int x = 0;
      if (c.rank() == 1) (void)c.irecv(&x, sizeof(x), src, tag);
    });
    (void)res;
  };
  EXPECT_DEATH(run_irecv(kAnySource, -7), "MRL_CHECK failed: tag == kAnyTag");
  EXPECT_DEATH(run_irecv(-2, 0), "MRL_CHECK failed: src == kAnySource");
  EXPECT_DEATH(run_irecv(2, 0), "MRL_CHECK failed: src == kAnySource");
}

// The linear mailbox scan minimpi matched with before per-source queues,
// kept verbatim as the reference the Mailbox must agree with.
bool matches(const Msg& m, int src, int tag) {
  return (src == kAnySource || m.src == src) &&
         (tag == kAnyTag || m.tag == tag);
}

std::vector<Msg>::iterator oracle_find_best(std::vector<Msg>& box, int src,
                                            int tag) {
  // Earliest-arriving matching message; FIFO clamping already guarantees
  // per-sender non-overtaking, so min-arrival is a valid MPI match order.
  auto find_best = [&]() -> std::vector<Msg>::iterator {
    auto best = box.end();
    for (auto it = box.begin(); it != box.end(); ++it) {
      if (!matches(*it, src, tag)) continue;
      if (best == box.end() || it->arrival_us < best->arrival_us ||
          (it->arrival_us == best->arrival_us && it->src < best->src)) {
        best = it;
      }
    }
    return best;
  };
  return find_best();
}

TEST(P2P, MailboxMatchesLinearScanOracle) {
  // Seeded random push/match streams into the mailbox of rank 2: five
  // sources (rank 2 is a self-send), three tags, selectors mixing specific
  // sources with kAnySource and tags with kAnyTag. Arrivals follow
  // clamp_fifo (non-decreasing per source) on a coarse 0.5 us grid, so
  // equal arrivals are common within one source and across sources.
  constexpr int kSources = 5;
  constexpr int kTags = 3;
  int matched = 0;
  int missed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](int n) {
      return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    Mailbox box;
    std::vector<Msg> oracle;
    std::vector<double> last(kSources, 0.0);
    std::vector<std::uint64_t> seq(kSources, 0);
    double clock = 0;
    auto match = [&](int src, int tag) {
      const Msg* got = box.find(src, tag);
      const auto want = oracle_find_best(oracle, src, tag);
      if (want == oracle.end()) {
        ASSERT_EQ(got, nullptr) << "seed " << seed;
        ++missed;
        return;
      }
      ASSERT_NE(got, nullptr) << "seed " << seed;
      EXPECT_EQ(got->src, want->src) << "seed " << seed;
      EXPECT_EQ(got->tag, want->tag) << "seed " << seed;
      EXPECT_EQ(got->seq, want->seq) << "seed " << seed;
      EXPECT_EQ(got->arrival_us, want->arrival_us) << "seed " << seed;
      box.take(got);
      oracle.erase(want);
      ++matched;
    };
    for (int op = 0; op < 3000; ++op) {
      // Alternate filling and draining phases, so the stream sees deep
      // queues as well as an empty mailbox.
      if (pick(100) < ((op / 250) % 2 == 0 ? 70 : 30)) {
        Msg m;
        m.src = pick(kSources);
        m.tag = pick(kTags);
        m.seq = seq[static_cast<std::size_t>(m.src)]++;
        clock += 0.5 * pick(3);
        // The network may deliver late (arrival past the clock); clamping
        // then holds this source's later pushes back to that arrival.
        double& prev = last[static_cast<std::size_t>(m.src)];
        prev = std::max(prev, clock + 0.5 * pick(4));
        m.arrival_us = prev;
        m.bytes = static_cast<std::uint64_t>(op);
        oracle.push_back(m);
        box.push(std::move(m));
      } else {
        match(pick(kSources + 1) - 1, pick(kTags + 1) - 1);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
    while (!oracle.empty()) {
      match(kAnySource, kAnyTag);
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(box.find(kAnySource, kAnyTag), nullptr) << "seed " << seed;
  }
  // The streams exercised both outcomes, not just one.
  EXPECT_GT(matched, 40 * 1000);
  EXPECT_GT(missed, 40 * 20);
}

TEST(Rma, GetReadsCommittedMemory) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<double> window(4, 0.0);
    if (c.rank() == 1) window[2] = 6.5;
    WinHandle win = c.create_win(window.data(), window.size() * sizeof(double));
    c.barrier();
    if (c.rank() == 0) {
      double got = 0;
      const double t0 = c.now();
      win.get(&got, sizeof(got), 1, 2 * sizeof(double));
      EXPECT_DOUBLE_EQ(got, 6.5);
      EXPECT_GT(c.now() - t0, 2.0);  // round trip costs latency
    }
    c.barrier();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, PutOutOfBoundsAborts) {
  Engine eng(plat(), 2);
  EXPECT_DEATH(
      {
        auto res = World::run(eng, [](Comm& c) {
          std::vector<std::byte> window(16);
          WinHandle win = c.create_win(window.data(), window.size());
          if (c.rank() == 0) {
            double v = 1;
            win.put(&v, sizeof(v), 1, 12);  // 12 + 8 > 16
          }
          c.barrier();
        });
        (void)res;
      },
      "put outside window");
}

// Rank 1 exposes a 16-byte window (none when `exposed` is false); rank 0
// then runs `op` on it at `off`.
enum class WinOp { kGet, kCas, kFetchAdd };
void win_op_at(WinOp op, std::uint64_t off, std::uint64_t bytes = 8,
               bool exposed = true) {
  Engine eng(plat(), 2);
  auto res = World::run(eng, [=](Comm& c) {
    std::vector<std::byte> window(16);
    const bool mine = c.rank() == 0 || exposed;
    WinHandle win = c.create_win(mine ? window.data() : nullptr,
                                 mine ? window.size() : 0);
    if (c.rank() == 0) {
      std::uint64_t buf[4] = {};
      switch (op) {
        case WinOp::kGet: win.get(buf, bytes, 1, off); break;
        case WinOp::kCas: win.compare_and_swap(0, 1, 1, off); break;
        case WinOp::kFetchAdd: win.fetch_add(1, 1, off); break;
      }
    }
    c.barrier();
  });
  (void)res;
}

TEST(Rma, GetOutOfBoundsAborts) {
  win_op_at(WinOp::kGet, 0, 16);  // the whole window is fine
  EXPECT_DEATH(win_op_at(WinOp::kGet, 8, 16), "get outside window");
  // off + bytes wraps around to 8, which a naive sum would accept.
  EXPECT_DEATH(win_op_at(WinOp::kGet, ~0ULL - 7, 16), "get outside window");
}

TEST(Rma, AtomicOutOfBoundsAborts) {
  win_op_at(WinOp::kCas, 8);  // the last word is fine
  EXPECT_DEATH(win_op_at(WinOp::kCas, 12), "atomic outside window");
  EXPECT_DEATH(win_op_at(WinOp::kFetchAdd, 16), "atomic outside window");
  // off + 8 wraps around to 4, which a naive sum would accept.
  EXPECT_DEATH(win_op_at(WinOp::kFetchAdd, ~0ULL - 3),
               "atomic outside window");
}

TEST(Rma, AtomicOnUnexposedRegionAborts) {
  EXPECT_DEATH(win_op_at(WinOp::kCas, 0, 8, /*exposed=*/false),
               "atomic on unexposed window region");
}

TEST(Rma, MultipleWindowsAreIndependent) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> wa(2, 0), wb(2, 0);
    WinHandle a = c.create_win(wa.data(), wa.size() * 8);
    WinHandle b = c.create_win(wb.data(), wb.size() * 8);
    if (c.rank() == 0) {
      std::uint64_t va = 11, vb = 22;
      a.put(&va, 8, 1, 0);
      b.put(&vb, 8, 1, 8);
    }
    a.fence();
    b.fence();
    if (c.rank() == 1) {
      EXPECT_EQ(wa[0], 11u);
      EXPECT_EQ(wb[1], 22u);
      EXPECT_EQ(wa[1], 0u);
      EXPECT_EQ(wb[0], 0u);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, SignalAfterDataFifoOrdering) {
  // A signal put issued after a data put must never be applied first, even
  // without an intermediate flush (FIFO network path). This pins a
  // simulator guarantee that is deliberately stronger than the MPI
  // standard's, so the RMA checker — which enforces the portable rule
  // (flush before signaling) — must stay off here.
  runtime::EngineOptions opt;
  opt.check = false;
  Engine eng(plat(), 2, opt);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(3, 0);  // [data0, data1, signal]
    WinHandle win = c.create_win(window.data(), window.size() * 8);
    if (c.rank() == 0) {
      const std::uint64_t data[2] = {5, 6};
      const std::uint64_t sig = 1;
      win.put(data, 16, 1, 0);
      win.put(&sig, 8, 1, 16, simnet::OpKind::kSignal);
    } else {
      win.wait_any_unapplied();
      while (window[2] != 1) win.wait_any_unapplied();
      EXPECT_EQ(window[0], 5u);
      EXPECT_EQ(window[1], 6u);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, FenceAppliesWithoutExplicitSync) {
  Engine eng(plat(), 4);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(4, 0);
    WinHandle win = c.create_win(window.data(), window.size() * 8);
    // All-to-one: everyone puts its rank id into slot [rank] of rank 0.
    win.fence();
    if (c.rank() != 0) {
      const std::uint64_t v = static_cast<std::uint64_t>(c.rank()) + 100;
      win.put(&v, 8, 0, static_cast<std::uint64_t>(c.rank()) * 8);
    }
    win.fence();
    if (c.rank() == 0) {
      for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(window[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i) + 100);
      }
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, PartialSyncCompactsCapturedPayloadsIntact) {
  // A sync that applies only the arrived puts slides the still-pending
  // captured bytes to the front of the target's payload buffer once the
  // applied bytes outweigh them. The pending puts need not sit in buffer
  // order, nor at its tail: here a near origin's puts X0, X2 arrive first
  // while a far origin's A1, B3 (issued in between) are still in flight, so
  // a live put at a low buffer offset (A1) follows one whose slide
  // destination covers it (B3). Every target byte must survive.
  const simnet::Platform p2 = simnet::Platform::perlmutter_cpu(2);
  const int n = p2.max_ranks();
  const int near = 1;
  const int far = n - 1;
  ASSERT_GT(p2.hw_rtt_us(0, far, n), p2.hw_rtt_us(0, near, n));
  Engine eng(p2, n);
  // Put sizes in issue order; A1 and B3 come from the far origin.
  const std::uint64_t sz[4] = {8, 1 << 20, (1 << 20) + 64, 64};
  std::uint64_t off[5] = {0};
  for (int i = 0; i < 4; ++i) off[i + 1] = off[i] + sz[i];
  const auto pattern = [](int put, std::uint64_t i) {
    return static_cast<std::byte>((i * 7 + static_cast<std::uint64_t>(put) *
                                              61 + 1) & 0xff);
  };
  std::size_t pending_after_first_sync = 0;
  std::vector<std::byte> window(off[4]);
  const auto r = World::run(eng, [&](Comm& c) {
    std::vector<std::byte> mine(8);
    std::byte* base = c.rank() == 0 ? window.data() : mine.data();
    WinHandle win = c.create_win(base, c.rank() == 0 ? off[4] : mine.size());
    std::vector<std::byte> src;
    const auto put = [&](int i) {
      src.resize(sz[i]);
      for (std::uint64_t b = 0; b < sz[i]; ++b) src[b] = pattern(i, b);
      win.put(src.data(), sz[i], 0, off[i]);
    };
    if (c.rank() == near) {
      put(0);
      put(2);
      win.flush(0);
      int go = 1;
      c.send(&go, sizeof(go), 0, 0);  // X0 and X2 have arrived
    } else if (c.rank() == far) {
      put(1);
      put(3);
    } else if (c.rank() == 0) {
      int go = 0;
      c.recv(&go, sizeof(go), near, 0);
      win.sync();
      pending_after_first_sync = win.win().unapplied_count(0);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  // The partial sync really was partial: only the far origin's two puts
  // were still pending when it compacted.
  ASSERT_EQ(pending_after_first_sync, 2u);
  for (int i = 0; i < 4; ++i) {
    for (std::uint64_t b = 0; b < sz[i]; ++b) {
      ASSERT_EQ(window[off[i] + b], pattern(i, b))
          << "put " << i << " byte " << b;
    }
  }
}

TEST(Rma, FlushWaitsForLatestPutTowardItsTargetOnly) {
  // An origin keeps one outstanding record per target with the latest
  // completion times of its puts there. With the trace on, each put's
  // clamped arrival is known, so every remote completion must end exactly
  // at max(entry + o, latest arrival among the puts it owes), whatever the
  // order of targets in the stream and whatever flush_local did before.
  runtime::EngineOptions o;
  o.trace = true;
  Engine eng(plat(), 3, o);
  struct Flush {
    int target;          // -1: flush_all
    std::size_t issued;  // puts issued before it
    double before;
    double after;
  };
  std::vector<int> put_targets;  // rank 0's puts, in issue order
  std::vector<Flush> flushes;
  const double o_us = plat().params(simnet::Runtime::kOneSidedMpi).o_us;
  double local_after = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    std::vector<std::byte> window(1 << 20);
    WinHandle win = c.create_win(window.data(), window.size());
    if (c.rank() == 0) {
      std::vector<std::byte> buf(1 << 20);
      const auto put = [&](int t, std::size_t bytes) {
        win.put(buf.data(), bytes, t, 0);
        put_targets.push_back(t);
      };
      const auto flush = [&](int t) {
        const double before = c.now();
        if (t < 0) {
          win.flush_all();
        } else {
          win.flush(t);
        }
        flushes.push_back(Flush{t, put_targets.size(), before, c.now()});
      };
      // A stream alternating targets; the last put toward 1 is 1 MiB and
      // still in flight when rank 0 flushes 2.
      put(2, 8);
      put(1, 8);
      put(2, 64);
      put(1, 1 << 20);
      flush(2);
      win.flush_local(1);
      local_after = c.now();
      flush(1);
      put(1, 8);
      put(2, 1 << 20);
      put(1, 64);
      put(2, 8);
      flush(1);
      put(1, 4096);
      flush(-1);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  std::vector<double> arrival;
  for (const simnet::MsgRecord& m : eng.trace().records()) {
    if (m.src_rank == 0 && m.kind == simnet::OpKind::kPut) {
      arrival.push_back(m.t_arrival);
    }
  }
  ASSERT_EQ(arrival.size(), put_targets.size());
  ASSERT_EQ(flushes.size(), 4u);
  std::vector<bool> done(arrival.size(), false);
  for (const Flush& f : flushes) {
    SCOPED_TRACE(f.target);
    double owed = 0;
    for (std::size_t i = 0; i < f.issued; ++i) {
      if (done[i] || (f.target >= 0 && put_targets[i] != f.target)) continue;
      owed = std::max(owed, arrival[i]);
      done[i] = true;
    }
    EXPECT_DOUBLE_EQ(f.after, std::max(f.before + o_us, owed));
  }
  // flush(2) did not wait for the 1 MiB put toward 1; flush_local(1) did
  // not complete it remotely, so the flush(1) after it still waited.
  EXPECT_LT(flushes[0].after, arrival[3]);
  EXPECT_LT(local_after, arrival[3]);
  EXPECT_DOUBLE_EQ(flushes[1].after, arrival[3]);
}

TEST(MultiNode, InterNodeTrafficIsNicBound) {
  // Two Perlmutter nodes: the inter-node path crosses PCIe4 (25 GB/s) and
  // the switch, so the pair peak drops from 32 (IF) to 25 GB/s and latency
  // grows by the extra hops.
  const simnet::Platform p2 = simnet::Platform::perlmutter_cpu(2);
  const int n = p2.max_ranks();
  EXPECT_DOUBLE_EQ(p2.pair_peak_gbs(0, n - 1, n), 25.0);
  EXPECT_GT(p2.hw_rtt_us(0, n - 1, n), p2.hw_rtt_us(0, 1, n));

  Engine eng(p2, n);
  double cross = 0, local = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      c.send(&x, 8, c.size() - 1, 0);  // other node
      c.send(&x, 8, 1, 1);             // same socket
    }
    if (c.rank() == c.size() - 1) {
      const RecvInfo i = c.recv(&x, 8, 0, 0);
      cross = i.arrival_us;
    }
    if (c.rank() == 1) {
      const RecvInfo i = c.recv(&x, 8, 0, 1);
      local = i.arrival_us;
    }
  });
  ASSERT_TRUE(r.ok());
  EXPECT_GT(cross, local);
}

// ---------------------------------------------------------------------------
// Metrics (DESIGN.md §9): op counters mirror what the comm layer issued
// ---------------------------------------------------------------------------

TEST(Metrics, SendRecvCountersAndBytes) {
  runtime::EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 2, o);
  const auto r = World::run(eng, [](Comm& c) {
    double buf[8] = {};
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) c.send(buf, sizeof(buf), 1, i);
    } else {
      for (int i = 0; i < 3; ++i) c.recv(buf, sizeof(buf), 0, i);
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  ASSERT_EQ(rep.ranks.size(), 2u);
  EXPECT_EQ(rep.ranks[0].ops.sends, 3u);
  EXPECT_EQ(rep.ranks[0].ops.bytes_sent, 3u * sizeof(double[8]));
  EXPECT_EQ(rep.ranks[0].ops.recvs, 0u);
  EXPECT_EQ(rep.ranks[1].ops.recvs, 3u);
  EXPECT_EQ(rep.ranks[1].ops.bytes_recv, 3u * sizeof(double[8]));
  EXPECT_EQ(rep.ranks[1].ops.sends, 0u);
  // 3 messages of 64 B => 3 entries in the size histogram's [64, 128) bucket.
  EXPECT_EQ(rep.totals().msg_bytes.bucket_count(6), 3u);
}

TEST(Metrics, RmaCountersSeparatePutsGetsAtomics) {
  runtime::EngineOptions o;
  o.metrics = true;
  o.trace = true;
  Engine eng(plat(), 2, o);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(2, 5);
    WinHandle win = c.create_win(window.data(), 2 * sizeof(std::uint64_t));
    win.fence();
    std::uint64_t v = 7;
    if (c.rank() == 0) win.put(&v, sizeof(v), 1, 0);
    win.fence();
    if (c.rank() == 0) {
      win.get(&v, sizeof(v), 1, 0);
      EXPECT_EQ(win.compare_and_swap(4, 9, 1, 8), 5u);  // mismatch: fails
      EXPECT_EQ(win.compare_and_swap(5, 9, 1, 8), 5u);  // match: wins
      win.fetch_add(1, 1, 8);                           // not a CAS
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  const runtime::OpCounters& c0 = rep.ranks[0].ops;
  EXPECT_EQ(c0.puts, 1u);
  EXPECT_EQ(c0.gets, 1u);
  EXPECT_EQ(c0.atomics, 3u);
  EXPECT_EQ(c0.cas_failures, 1u);  // only the mismatching CAS
  EXPECT_EQ(rep.ranks[1].ops.puts, 0u);
  // Target rank observed the applied put as a delivery.
  EXPECT_EQ(rep.ranks[1].ops.recvs, 1u);
  EXPECT_EQ(rep.ranks[1].ops.bytes_recv, sizeof(std::uint64_t));
  // Every fabric-visible op has exactly one trace record (MPI layer).
  EXPECT_EQ(rep.totals().ops.fabric_ops(), eng.trace().records().size());
}

TEST(Metrics, CollectivesAndSyncsCounted) {
  runtime::EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 4, o);
  const auto r = World::run(eng, [](Comm& c) {
    c.barrier();
    std::vector<double> buf(8, 0.0);
    c.create_win(buf.data(), buf.size() * sizeof(double));
    c.barrier();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(rep.ranks[static_cast<std::size_t>(rank)].ops.collectives, 3u)
        << rank;
    // Each collective closes one synchronization epoch on every rank.
    EXPECT_EQ(rep.ranks[static_cast<std::size_t>(rank)].ops.syncs, 3u) << rank;
  }
}

TEST(P2P, GatedRecvBitIdenticalToLinearScanOracleUnderTagChurn) {
  // The heap scheduler parks a blocked receiver behind a WaitGate on the
  // sender's push counter and re-parks it when a push doesn't satisfy the
  // match (wrong tag, or an ANY_SOURCE race); the linear scheduler ignores
  // gates and brute-force re-evaluates every condition after every perform.
  // The two must produce bit-identical clocks and traces.
  //
  // The body manufactures every re-park hazard: receivers post for a tag
  // that arrives SECOND (the first push wakes the gate, the match fails,
  // the waiter re-parks), then drain with ANY_SOURCE + ANY_TAG receives
  // whose gate is the inbox counter shared by several senders.
  const int n = 6;
  const int half = n / 2;
  auto run_config = [&](runtime::SchedulerKind sched) {
    runtime::EngineOptions o;
    o.scheduler = sched;
    o.trace = true;
    Engine eng(plat(), n, o);
    const auto r = World::run(eng, [&](Comm& c) {
      double payload = 100.0 * c.rank();
      if (c.rank() >= half) {
        const int dst = c.rank() - half;
        // Mismatched tag first; the receiver's posted recv must skip it.
        c.send(&payload, sizeof(payload), dst, /*tag=*/9);
        c.compute(0.7 * (c.rank() % 3 + 1));
        c.send(&payload, sizeof(payload), dst, /*tag=*/5);
        c.compute(0.3);
        c.send(&payload, sizeof(payload), dst, /*tag=*/9);
      } else {
        double buf = 0;
        // Blocks before anything arrives, wakes on the tag-9 push, fails
        // the match, and re-parks until the tag-5 push.
        const RecvInfo first =
            c.recv(&buf, sizeof(buf), c.rank() + half, /*tag=*/5);
        EXPECT_EQ(first.tag, 5);
        // Drain the two tag-9 messages via the ANY_SOURCE inbox gate.
        for (int k = 0; k < 2; ++k) {
          const RecvInfo any =
              c.recv(&buf, sizeof(buf), kAnySource, kAnyTag);
          EXPECT_EQ(any.tag, 9);
        }
      }
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return std::make_pair(r, eng.trace().records());
  };

  const auto [r0, t0] = run_config(runtime::SchedulerKind::kIndexedHeap);
  const auto [r, t] = run_config(runtime::SchedulerKind::kLinearScan);
  EXPECT_EQ(r.makespan_us, r0.makespan_us);
  ASSERT_EQ(r.rank_end_us.size(), r0.rank_end_us.size());
  for (std::size_t k = 0; k < r0.rank_end_us.size(); ++k) {
    EXPECT_EQ(r.rank_end_us[k], r0.rank_end_us[k]) << "rank " << k;
  }
  ASSERT_EQ(t.size(), t0.size());
  for (std::size_t k = 0; k < t0.size(); ++k) {
    EXPECT_EQ(t[k].src_rank, t0[k].src_rank) << k;
    EXPECT_EQ(t[k].dst_rank, t0[k].dst_rank) << k;
    EXPECT_EQ(t[k].t_issue, t0[k].t_issue) << k;
    EXPECT_EQ(t[k].t_arrival, t0[k].t_arrival) << k;
  }
}

TEST(Metrics, DisabledMetricsLeaveTraceUntouched) {
  // Byte-identity guard at the unit level: the trace from a metrics-enabled
  // run must equal the trace from a metrics-disabled run record for record.
  auto run_trace = [](bool metrics) {
    runtime::EngineOptions o;
    o.metrics = metrics;
    o.trace = true;
    Engine eng(plat(), 2, o);
    const auto r = World::run(eng, [](Comm& c) {
      std::vector<std::uint64_t> window(1, 0);
      WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
      win.fence();
      std::uint64_t v = 3;
      if (c.rank() == 0) win.put(&v, sizeof(v), 1, 0);
      win.fence();
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return eng.trace().records();
  };
  const auto off = run_trace(false);
  const auto on = run_trace(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].t_issue, on[i].t_issue) << i;
    EXPECT_EQ(off[i].t_arrival, on[i].t_arrival) << i;
    EXPECT_EQ(off[i].bytes, on[i].bytes) << i;
  }
}

}  // namespace
}  // namespace mrl::mpi
