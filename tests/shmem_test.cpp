// minishmem semantics: symmetric heap, put-with-signal ordering/visibility,
// waits, quiet, atomics, and the paper's GPU CAS latency calibration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "shmem/shmem.hpp"
#include "simnet/platform.hpp"

namespace mrl::shmem {
namespace {

using runtime::Engine;

TEST(Shmem, SymmetricAllocationReturnsSameOffsets) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 4);
  std::vector<std::uint64_t> offs(4);
  const auto r = World::run(eng, [&](Ctx& s) {
    auto a = s.allocate<double>(100);
    auto b = s.allocate<std::uint64_t>(10);
    s.barrier_all();
    offs[static_cast<std::size_t>(s.pe())] = a.offset * 1000000 + b.offset;
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(offs[0], offs[static_cast<std::size_t>(i)]);
}

TEST(Shmem, PutSignalDeliversDataThenSignal) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto data = s.allocate<double>(64);
    auto sig = s.allocate<std::uint64_t>(1);
    if (s.pe() == 0) {
      std::vector<double> src(64);
      std::iota(src.begin(), src.end(), 0.0);
      s.put_signal_nbi(data, src.data(), 64, sig, 1, 1);
      s.quiet();
    } else {
      s.wait_until(sig, 1);
      const double* d = s.local(data);
      for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(d[i], i);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, SignalNotVisibleBeforeArrivalTime) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto sig = s.allocate<std::uint64_t>(1);
    if (s.pe() == 0) {
      std::uint64_t dummy = 0;
      s.put_signal_nbi(Sym<std::uint64_t>{sig.offset}, &dummy, 0, sig, 1, 1);
      s.quiet();
    } else {
      // PE 1 reads its local memory immediately at t=0: the signal put needs
      // >= L (~3.35us) to arrive, so a raw read shows 0.
      EXPECT_EQ(*s.local(sig), 0u);
      s.wait_until(sig, 1);
      EXPECT_EQ(*s.local(sig), 1u);
      EXPECT_GT(s.now(), 3.0);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, WaitUntilAnyRespectsMask) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto sig = s.allocate<std::uint64_t>(4);
    if (s.pe() == 0) {
      std::uint64_t dummy = 0;
      // Set signals 1 and 3; index 1 is masked out at the receiver.
      s.put_signal_nbi(sig.at(1), &dummy, 0, sig.at(1), 1, 1);
      s.put_signal_nbi(sig.at(3), &dummy, 0, sig.at(3), 1, 1);
      s.quiet();
    } else {
      const std::int32_t status[4] = {0, 1, 0, 0};  // ignore slot 1
      const std::size_t idx = s.wait_until_any(sig, 4, status, 1);
      EXPECT_EQ(idx, 3u);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, WaitUntilAllBlocksForEveryUnmaskedSignal) {
  Engine eng(simnet::Platform::summit_gpu(), 3);
  const auto r = World::run(eng, [](Ctx& s) {
    auto sig = s.allocate<std::uint64_t>(3);
    if (s.pe() != 0) {
      std::uint64_t dummy = 0;
      s.compute(10.0 * s.pe());
      s.put_signal_nbi(sig.at(static_cast<std::uint64_t>(s.pe())), &dummy, 0,
                       sig.at(static_cast<std::uint64_t>(s.pe())), 1, 0);
      s.quiet();
    } else {
      const std::int32_t status[3] = {1, 0, 0};  // my own slot is masked
      s.wait_until_all(sig, 3, status, 1);
      EXPECT_EQ(s.local(sig)[1], 1u);
      EXPECT_EQ(s.local(sig)[2], 1u);
      EXPECT_GT(s.now(), 20.0);  // had to wait for the slowest (PE 2)
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, QuietWaitsForRemoteCompletion) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto data = s.allocate<std::byte>(4 << 20);
    if (s.pe() == 0) {
      std::vector<std::byte> src(4 << 20);
      const double t0 = s.now();
      s.put_nbi(data, src.data(), src.size(), 1);
      const double after_put = s.now() - t0;
      s.quiet();
      const double after_quiet = s.now() - t0;
      EXPECT_LT(after_put, 1.0);
      // 4 MiB over one NVLink3 lane (25 GB/s) ~ 168 us.
      EXPECT_GT(after_quiet, 150.0);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, FetchAddAccumulates) {
  Engine eng(simnet::Platform::summit_gpu(), 6);
  const auto r = World::run(eng, [](Ctx& s) {
    auto counter = s.allocate<std::uint64_t>(1);
    s.barrier_all();
    s.atomic_fetch_add(counter, 1, 0);
    s.barrier_all();
    if (s.pe() == 0) {
      EXPECT_EQ(*s.local(counter), 6u);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, CasReturnsOldValueAndSwaps) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto word = s.allocate<std::uint64_t>(1);
    s.barrier_all();
    if (s.pe() == 1) {
      EXPECT_EQ(s.atomic_compare_swap(word, 0, 11, 0), 0u);
      EXPECT_EQ(s.atomic_compare_swap(word, 0, 22, 0), 11u);  // fails
      EXPECT_EQ(s.atomic_compare_swap(word, 11, 22, 0), 11u);
    }
    s.barrier_all();
    if (s.pe() == 0) {
      EXPECT_EQ(*s.local(word), 22u);
    }
  });
  ASSERT_TRUE(r.ok());
}

// --- paper Fig 4 / Sec III-C CAS latency calibration ---

double cas_latency(const simnet::Platform& p, int npes, int origin,
                   int target) {
  Engine eng(p, npes);
  double per_op = 0;
  const auto r = World::run(eng, [&](Ctx& s) {
    auto word = s.allocate<std::uint64_t>(1);
    s.barrier_all();
    if (s.pe() == origin) {
      constexpr int kReps = 32;
      const double t0 = s.now();
      for (int i = 0; i < kReps; ++i) s.atomic_fetch_add(word, 1, target);
      per_op = (s.now() - t0) / kReps;
    }
    s.barrier_all();
  });
  EXPECT_TRUE(r.ok());
  return per_op;
}

TEST(ShmemCalibration, PerlmutterGpuCasIs0p8us) {
  EXPECT_NEAR(cas_latency(simnet::Platform::perlmutter_gpu(), 4, 1, 0), 0.8,
              0.1);
}

TEST(ShmemCalibration, SummitGpuCasIntraSocketIs1us) {
  EXPECT_NEAR(cas_latency(simnet::Platform::summit_gpu(), 6, 1, 0), 1.0, 0.1);
}

TEST(ShmemCalibration, SummitGpuCasCrossSocketIs1p6us) {
  EXPECT_NEAR(cas_latency(simnet::Platform::summit_gpu(), 6, 4, 0), 1.6, 0.1);
}

TEST(Shmem, PutSignalSingleMessageLatencyPerlmutterGpu) {
  // Fig 4a: ~4 us end-to-end latency at 1 msg/sync on Perlmutter GPUs.
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  double arrival = 0;
  const auto r = World::run(eng, [&](Ctx& s) {
    auto data = s.allocate<double>(1);
    auto sig = s.allocate<std::uint64_t>(1);
    if (s.pe() == 0) {
      double v = 1.0;
      s.put_signal_nbi(data, &v, 1, sig, 1, 1);
      s.quiet();
    } else {
      s.wait_until(sig, 1);
      arrival = s.now();
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(arrival, 4.0, 0.5);
}

TEST(Shmem, AsymmetricAllocationAborts) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  EXPECT_DEATH(
      {
        auto res = World::run(eng, [](Ctx& s) {
          auto a = s.allocate<double>(s.pe() == 0 ? 10 : 20);
          (void)a;
          s.barrier_all();
        });
        (void)res;
      },
      "asymmetric");
}

TEST(Shmem, GetReadsRemoteHeap) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto data = s.allocate<double>(4);
    if (s.pe() == 1) s.local(data)[3] = 9.75;
    s.barrier_all();
    if (s.pe() == 0) {
      double got = 0;
      s.get(&got, data.at(3), 1, 1);
      EXPECT_DOUBLE_EQ(got, 9.75);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, PlainPutNbiAppliedAtBarrier) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto data = s.allocate<double>(8);
    if (s.pe() == 0) {
      double src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      s.put_nbi(data, src, 8, 1);
      s.quiet();
    }
    s.barrier_all();
    if (s.pe() == 1) {
      for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(s.local(data)[i], i + 1);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, WaitUntilArbitraryValue) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto sig = s.allocate<std::uint64_t>(1);
    if (s.pe() == 0) {
      for (std::uint64_t v = 1; v <= 3; ++v) {
        std::uint64_t dummy = 0;
        s.put_signal_nbi(sig, &dummy, 0, sig, v, 1);
      }
      s.quiet();
    } else {
      s.wait_until(sig, 3);  // intermediate values 1, 2 must not satisfy
      EXPECT_EQ(*s.local(sig), 3u);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, AllocationAlignmentIsRespected) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const auto r = World::run(eng, [](Ctx& s) {
    auto a = s.allocate<std::byte>(3);       // odd size
    auto b = s.allocate<double>(1);          // must be 8-aligned
    auto cc = s.allocate<std::uint64_t>(1);
    EXPECT_EQ(b.offset % alignof(double), 0u);
    EXPECT_EQ(cc.offset % 8, 0u);
    EXPECT_GE(b.offset, a.offset + 3);
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Shmem, FrontierGpuCalibration) {
  // Extension platform: ROC_SHMEM-projected atomics stay fast and scale
  // with the Infinity-Fabric route (in-package vs package-to-package).
  const auto p = simnet::Platform::frontier_gpu();
  const double intra = cas_latency(p, 8, 1, 0);  // same MI250X package
  const double inter = cas_latency(p, 8, 2, 0);  // across packages
  EXPECT_LT(intra, inter);
  EXPECT_LT(inter, 2.5);
  EXPECT_GT(intra, 0.5);
}

TEST(Shmem, HeapExhaustionAborts) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  World::Options opt;
  opt.heap_bytes = 1024;
  EXPECT_DEATH(
      {
        auto res = World::run(
            eng, [](Ctx& s) { auto big = s.allocate<double>(4096); (void)big; },
            opt);
        (void)res;
      },
      "heap exhausted");
}

// A 1 KiB heap; PE 0 gets `count` words at `off` from PE 1.
void get_at(std::uint64_t off, std::uint64_t count) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  World::Options opt;
  opt.heap_bytes = 1024;
  auto res = World::run(
      eng,
      [=](Ctx& s) {
        std::uint64_t buf[4] = {};
        if (s.pe() == 0) s.get(buf, Sym<std::uint64_t>{off}, count, 1);
        s.barrier_all();
      },
      opt);
  (void)res;
}

TEST(Shmem, GetOutsideHeapAborts) {
  get_at(1024 - 16, 2);  // the last two words are fine
  EXPECT_DEATH(get_at(1024 - 8, 2), "get outside symmetric heap");
  // off + bytes wraps around to 8, which a naive sum would accept.
  EXPECT_DEATH(get_at(~0ULL - 7, 2), "get outside symmetric heap");
}

// A 1 KiB heap; PE 0 puts one word with a fused signal at `sig_off` to PE 1.
void put_signal_at(std::uint64_t sig_off) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  World::Options opt;
  opt.heap_bytes = 1024;
  auto res = World::run(
      eng,
      [=](Ctx& s) {
        auto data = s.allocate<std::uint64_t>(1);
        const std::uint64_t word = 7;
        if (s.pe() == 0) {
          s.put_signal_nbi(data, &word, 1, Sym<std::uint64_t>{sig_off}, 1, 1);
        }
        s.barrier_all();
      },
      opt);
  (void)res;
}

TEST(Shmem, PutSignalOutsideHeapAborts) {
  put_signal_at(1024 - 8);  // the last word is fine
  EXPECT_DEATH(put_signal_at(1024 - 4), "signal outside symmetric heap");
  // sig_off + 8 wraps around to 4, which a naive sum would accept.
  EXPECT_DEATH(put_signal_at(~0ULL - 3), "signal outside symmetric heap");
}

// A 1 KiB heap; PE 0 puts `count` words at `off` to PE 1.
void put_at(std::uint64_t off, std::uint64_t count) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  World::Options opt;
  opt.heap_bytes = 1024;
  auto res = World::run(
      eng,
      [=](Ctx& s) {
        const std::uint64_t buf[4] = {};
        if (s.pe() == 0) s.put_nbi(Sym<std::uint64_t>{off}, buf, count, 1);
        s.barrier_all();
      },
      opt);
  (void)res;
}

TEST(Shmem, PutOutsideHeapAborts) {
  put_at(1024 - 16, 2);  // the last two words are fine
  EXPECT_DEATH(put_at(1024 - 8, 2), "put outside symmetric heap");
  // off + bytes wraps around to 8, which a naive sum would accept.
  EXPECT_DEATH(put_at(~0ULL - 7, 2), "put outside symmetric heap");
}

// A 1 KiB heap; PE 0 runs a compare-and-swap (or a fetch-add) on the word at
// `off` of PE 1.
void atomic_at(std::uint64_t off, bool cas) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  World::Options opt;
  opt.heap_bytes = 1024;
  auto res = World::run(
      eng,
      [=](Ctx& s) {
        if (s.pe() == 0) {
          if (cas) {
            s.atomic_compare_swap(Sym<std::uint64_t>{off}, 0, 1, 1);
          } else {
            s.atomic_fetch_add(Sym<std::uint64_t>{off}, 1, 1);
          }
        }
        s.barrier_all();
      },
      opt);
  (void)res;
}

TEST(Shmem, AtomicOutsideHeapAborts) {
  atomic_at(1024 - 8, true);  // the last word is fine
  EXPECT_DEATH(atomic_at(1024 - 4, true), "atomic outside symmetric heap");
  EXPECT_DEATH(atomic_at(1024, false), "atomic outside symmetric heap");
  // off + 8 wraps around to 4, which a naive sum would accept.
  EXPECT_DEATH(atomic_at(~0ULL - 3, false), "atomic outside symmetric heap");
}

TEST(Shmem, PartialWaitCompactsCapturedPayloadsIntact) {
  // The SHMEM twin of Rma.PartialSyncCompactsCapturedPayloadsIntact: a
  // wait_until that applies only the arrived deliveries slides the
  // still-pending captured bytes to the front of the target's payload
  // buffer. A near PE's X0 and X2 arrive first while a far PE's A1 and B3,
  // issued in between, are still in flight, so a live delivery at a low
  // buffer offset (A1) follows one whose slide destination covers it (B3).
  // X0 is a zero-byte put_signal on a second signal word: its 8-byte value
  // alone occupies the front of the buffer, and a signal needs no quiet
  // before X2's. Every target byte must survive.
  const simnet::Platform p2 = simnet::Platform::perlmutter_cpu(2);
  const int n = p2.max_ranks();
  const int near = 1;
  const int far = n - 1;
  ASSERT_GT(p2.hw_rtt_us(0, far, n), p2.hw_rtt_us(0, near, n));
  Engine eng(p2, n);
  // Data sizes in issue order; A1 and B3 come from the far PE. Every PE
  // holds a heap of their sum, so they stay small: a few hundred freed
  // MiB-sized heaps would leave a hole in the allocator that a later test's
  // large calloc reuses, zero-filled and resident.
  const std::uint64_t sz[4] = {0, 1 << 14, (1 << 14) + 64, 64};
  std::uint64_t off[5] = {0};
  for (int i = 0; i < 4; ++i) off[i + 1] = off[i] + sz[i];
  const auto pattern = [](int put, std::uint64_t i) {
    return static_cast<std::byte>((i * 7 + static_cast<std::uint64_t>(put) *
                                              61 + 1) & 0xff);
  };
  World::Options opt;
  opt.heap_bytes = off[4] + 64;
  bool far_pending_after_wait = false;
  std::uint64_t sig0 = 0;
  std::vector<std::byte> got(off[4]);
  const auto r = World::run(
      eng,
      [&](Ctx& s) {
        auto data = s.allocate<std::byte>(off[4]);
        auto sig = s.allocate<std::uint64_t>(2);
        std::vector<std::byte> src;
        const auto put = [&](int i) {
          src.resize(sz[i]);
          for (std::uint64_t b = 0; b < sz[i]; ++b) src[b] = pattern(i, b);
          if (i == 0 || i == 2) {
            s.put_signal_nbi(data.at(off[i]), src.data(), sz[i],
                             sig.at(i / 2), 1, 0);
          } else {
            s.put_nbi(data.at(off[i]), src.data(), sz[i], 0);
          }
        };
        if (s.pe() == near) {
          put(0);
          put(2);
        } else if (s.pe() == far) {
          put(1);
          put(3);
        } else if (s.pe() == 0) {
          s.wait_until(sig.at(1), 1);  // X0 and X2 have arrived
          const std::byte* d = s.local(data);
          far_pending_after_wait =
              d[off[1]] == std::byte{0} && d[off[3]] == std::byte{0};
        }
        s.barrier_all();
        if (s.pe() == 0) {
          std::memcpy(got.data(), s.local(data), off[4]);
          sig0 = *s.local(sig);
        }
      },
      opt);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  // The wait really was partial: the far PE's puts were still pending.
  ASSERT_TRUE(far_pending_after_wait);
  EXPECT_EQ(sig0, 1u);
  for (int i = 0; i < 4; ++i) {
    for (std::uint64_t b = 0; b < sz[i]; ++b) {
      ASSERT_EQ(got[off[i] + b], pattern(i, b)) << "put " << i << " byte " << b;
    }
  }
}

TEST(Shmem, ZeroByteHeapRunsCollectives) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  World::Options opt;
  opt.heap_bytes = 0;
  const auto r = World::run(
      eng,
      [](Ctx& s) {
        s.barrier_all();
        s.barrier_all();
      },
      opt);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
}

TEST(Shmem, GetNearEndOfUntouchedHeapReadsZeros) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  const World::Options opt;  // the default 64 MiB heap
  const std::uint64_t n = opt.heap_bytes / sizeof(std::uint64_t);
  const auto r = World::run(
      eng,
      [n](Ctx& s) {
        auto all = s.allocate<std::uint64_t>(n);
        s.barrier_all();
        if (s.pe() == 0) {
          std::uint64_t got[4] = {1, 1, 1, 1};
          s.get(got, all.at(n - 4), 4, 1);
          for (std::uint64_t v : got) EXPECT_EQ(v, 0u);
        }
        s.barrier_all();
      },
      opt);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
}

TEST(Shmem, SecondRunOnSameEngineStartsFromZeroedHeap) {
  // Each World owns fresh zero memory: a later run must never see what an
  // earlier run on the same engine wrote (locally or by a put).
  Engine eng(simnet::Platform::perlmutter_gpu(), 2);
  World::Options opt;
  opt.heap_bytes = 64 << 10;  // small enough to come from reused heap chunks
  constexpr std::uint64_t kWords = 1024;
  const auto first = World::run(
      eng,
      [](Ctx& s) {
        auto data = s.allocate<std::uint64_t>(kWords);
        std::uint64_t* d = s.local(data);
        for (std::uint64_t i = 0; i < kWords; ++i) d[i] = ~0ULL;
        const std::uint64_t v = 0xA5A5A5A5A5A5A5A5ULL;
        s.put_nbi(data.at(kWords - 1), &v, 1, 1 - s.pe());
        s.quiet();
        s.barrier_all();
      },
      opt);
  ASSERT_TRUE(first.ok()) << first.status.to_string();
  const auto second = World::run(
      eng,
      [](Ctx& s) {
        auto data = s.allocate<std::uint64_t>(kWords);
        const std::uint64_t* d = s.local(data);
        for (std::uint64_t i = 0; i < kWords; ++i) EXPECT_EQ(d[i], 0u) << i;
        std::uint64_t got = 1;
        s.get(&got, data.at(kWords - 1), 1, 1 - s.pe());
        EXPECT_EQ(got, 0u);
        s.barrier_all();
      },
      opt);
  ASSERT_TRUE(second.ok()) << second.status.to_string();
}

#if defined(__linux__)
TEST(Shmem, UntouchedHeapPagesAreNotResident) {
  // A 4-PE world with 256 MiB heaps: each PE touches one byte every 32 MiB
  // of its heap, then asks the kernel which pages of it are resident.
  constexpr std::uint64_t kHeap = 256ull << 20;
  constexpr std::uint64_t kStride = 32ull << 20;
  constexpr std::uint64_t kTouches = kHeap / kStride;
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  Engine eng(simnet::Platform::perlmutter_gpu(), 4);
  World::Options opt;
  opt.heap_bytes = kHeap;
  std::vector<std::uint64_t> resident(4, ~0ULL);
  const auto r = World::run(
      eng,
      [&](Ctx& s) {
        auto arena = s.allocate<std::byte>(kHeap);
        std::byte* base = s.local(arena);
        for (std::uint64_t off = 0; off < kHeap; off += kStride) {
          base[off] = std::byte{1};
        }
        const auto lo = reinterpret_cast<std::uintptr_t>(base) / page * page;
        const auto hi = reinterpret_cast<std::uintptr_t>(base) + kHeap;
        std::vector<unsigned char> vec((hi - lo + page - 1) / page);
        EXPECT_EQ(mincore(reinterpret_cast<void*>(lo), hi - lo, vec.data()),
                  0);
        std::uint64_t n = 0;
        for (unsigned char v : vec) n += v & 1u;
        resident[static_cast<std::size_t>(s.pe())] = n;
        s.barrier_all();
      },
      opt);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  // With transparent huge pages set to "always" one touch may commit a
  // whole 2 MiB page; the slack covers the allocator's chunk header.
  const std::uint64_t touched_pages = kTouches * ((2u << 20) / page);
  const std::uint64_t slack_pages = 16;
  for (std::uint64_t n : resident) {
    EXPECT_LE(n, touched_pages + slack_pages);
    EXPECT_GE(n, kTouches);
  }
}
#endif

TEST(Shmem, CasRetrySpinUnderDropsTripsWatchdog) {
  // A CAS spin-loop that can never succeed (the expected value is never
  // stored) is a livelock, not a deadlock: each retry makes virtual-time
  // progress, amplified by drop-retransmit backoff. The engine's watchdog
  // must convert it into a diagnosable Status instead of hanging the test.
  simnet::Platform plat = simnet::Platform::perlmutter_gpu();
  simnet::FaultSpec spec;
  spec.seed = 42;
  spec.drop_prob = 0.3;
  spec.retransmit_timeout_us = 20.0;
  spec.backoff_base_us = 5.0;
  plat.set_faults(spec);
  runtime::EngineOptions opt;
  opt.watchdog_virtual_us = 50000.0;
  Engine eng(plat, 2, opt);
  const auto r = World::run(eng, [](Ctx& s) {
    auto word = s.allocate<std::uint64_t>(1);
    s.barrier_all();
    if (s.pe() == 0) {
      while (s.atomic_compare_swap(word, 42, 9, 1) != 42) {
        // never succeeds: *word stays 0 forever
      }
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
  EXPECT_NE(r.status.message().find("watchdog"), std::string::npos)
      << r.status.message();
}

TEST(Shmem, DropsChargeBackoffOnAtomics) {
  // Same program, pristine vs drop-degraded fabric: the degraded run's
  // virtual completion time must be strictly larger (drops are pure cost).
  const auto run_once = [](bool faults) {
    simnet::Platform plat = simnet::Platform::perlmutter_gpu();
    if (faults) {
      simnet::FaultSpec spec;
      spec.seed = 7;
      spec.drop_prob = 0.4;
      spec.retransmit_timeout_us = 25.0;
      spec.backoff_base_us = 10.0;
      plat.set_faults(spec);
    }
    Engine eng(plat, 2);
    const auto r = World::run(eng, [](Ctx& s) {
      auto word = s.allocate<std::uint64_t>(1);
      s.barrier_all();
      if (s.pe() == 0) {
        for (int i = 0; i < 32; ++i) s.atomic_fetch_add(word, 1, 1);
      }
      s.barrier_all();
    });
    EXPECT_TRUE(r.ok());
    return r.makespan_us;
  };
  const double pristine = run_once(false);
  const double degraded = run_once(true);
  EXPECT_GT(degraded, pristine);
}

// ---------------------------------------------------------------------------
// Metrics (DESIGN.md §9)
// ---------------------------------------------------------------------------

TEST(Metrics, PutGetAtomicCountersAndCasFailures) {
  runtime::EngineOptions o;
  o.metrics = true;
  o.trace = true;
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, o);
  const auto r = World::run(eng, [](Ctx& s) {
    auto data = s.allocate<double>(8);
    auto word = s.allocate<std::uint64_t>(1);
    if (s.pe() == 1) s.local(data)[0] = 2.5;
    s.barrier_all();
    if (s.pe() == 0) {
      double src[8] = {};
      s.put_nbi(data, src, 8, 1);
      s.quiet();
      double got = 0;
      s.get(&got, data.at(0), 1, 1);
      EXPECT_EQ(s.atomic_compare_swap(word, 5, 9, 1), 0u);   // fails
      EXPECT_EQ(s.atomic_compare_swap(word, 0, 9, 1), 0u);   // wins
      s.atomic_fetch_add(word, 1, 1);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  const runtime::OpCounters& c0 = rep.ranks[0].ops;
  EXPECT_EQ(c0.puts, 1u);
  EXPECT_EQ(c0.gets, 1u);
  EXPECT_EQ(c0.bytes_recv, sizeof(double));
  EXPECT_EQ(c0.atomics, 3u);
  EXPECT_EQ(c0.cas_failures, 1u);
  EXPECT_EQ(c0.collectives, 2u);
  EXPECT_EQ(rep.ranks[1].ops.collectives, 2u);
  // SHMEM gets bypass the trace (adding a record would change trace bytes),
  // so trace records = fabric ops minus the get round trips.
  const runtime::OpCounters totals = rep.totals().ops;
  EXPECT_EQ(totals.fabric_ops() - totals.gets, eng.trace().records().size());
}

TEST(Metrics, PutSignalCountsOnePut) {
  runtime::EngineOptions o;
  o.metrics = true;
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, o);
  const auto r = World::run(eng, [](Ctx& s) {
    auto data = s.allocate<double>(16);
    auto sig = s.allocate<std::uint64_t>(1);
    if (s.pe() == 0) {
      double src[16] = {};
      s.put_signal_nbi(data, src, 16, sig, 1, 1);
      s.quiet();
    } else {
      s.wait_until(sig, 1);
    }
    s.barrier_all();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  // One put-with-signal = one put (data+signal ride one fabric op here).
  EXPECT_EQ(rep.ranks[0].ops.puts, 1u);
  EXPECT_EQ(rep.ranks[0].ops.bytes_sent, 16 * sizeof(double));
  // The landed payload shows up as a delivery on the target.
  EXPECT_EQ(rep.ranks[1].ops.recvs, 1u);
  EXPECT_GE(rep.ranks[1].ops.waits, 1u);
}

}  // namespace
}  // namespace mrl::shmem
