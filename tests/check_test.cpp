// RMA race & synchronization checker (DESIGN.md §11): injected-race corpus
// (every diagnostic family fires with rank/time/op/byte-range detail),
// zero-false-positive runs over the paper workloads, verdict byte-identity
// across schedulers, zero perturbation of simulated time, the
// violations metrics family, and the enriched deadlock/watchdog notes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "runtime/engine.hpp"
#include "shmem/shmem.hpp"
#include "simnet/platform.hpp"
#include "workloads/hashtable/hashtable.hpp"
#include "workloads/sptrsv/sptrsv.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl {
namespace {

using runtime::Engine;
using runtime::EngineOptions;
using runtime::SchedulerKind;

EngineOptions checked() {
  EngineOptions o;
  o.check = true;
  return o;
}

bool contains(const std::string& hay, const char* needle) {
  return hay.find(needle) != std::string::npos;
}

// --- injected-race corpus -------------------------------------------------
// Each program is a minimal known-bad pattern; helpers return the run Status
// so the identity test can replay them under every scheduler.

Status mpi_overlapping_puts(EngineOptions opt) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, opt);
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(32, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    double v = c.rank();
    if (c.rank() < 2) {
      // Both origins write rank 2's bytes [0, 8) in the same fence epoch.
      win.put(&v, sizeof(v), 2, 0);
      win.flush(2);
    }
    win.fence();
  });
  return res.status;
}

Status shmem_overlapping_puts(EngineOptions opt) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 3, opt);
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<double>(8);
    double v = s.pe();
    if (s.pe() < 2) {
      s.put_nbi(data, &v, 1, 2);
      s.quiet();
    }
    s.barrier_all();
  });
  return res.status;
}

TEST(CheckCorpus, MpiOverlappingConcurrentPuts) {
  const Status st = mpi_overlapping_puts(checked());
  ASSERT_EQ(st.code(), ErrorCode::kFailedPrecondition) << st.to_string();
  EXPECT_TRUE(contains(st.to_string(), "race on win0@rank2"))
      << st.to_string();
  EXPECT_TRUE(contains(st.to_string(), "unordered in happens-before"))
      << st.to_string();
  EXPECT_TRUE(contains(st.to_string(), "bytes [0, 8)")) << st.to_string();
}

TEST(CheckCorpus, MpiGetRacesWithPut) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    double v = 1.0;
    if (c.rank() == 0) {
      win.put(&v, sizeof(v), 2, 0);
      win.flush(2);
    } else if (c.rank() == 1) {
      win.get(&v, sizeof(v), 2, 0);  // unordered against rank 0's put
    }
    win.fence();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(contains(res.status.to_string(), "race on win0@rank2"));
  EXPECT_TRUE(contains(res.status.to_string(), "get"));
}

TEST(CheckCorpus, MpiMissingFlushBeforeSignalPut) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(16, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double data[8] = {0};
      std::uint64_t sig = 1;
      win.put(data, sizeof(data), 1, 0);
      // BUG: no flush between the data put and the signal put.
      win.put(&sig, sizeof(sig), 1, 64, simnet::OpKind::kSignal);
      win.flush_all();
    }
    win.fence();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(contains(res.status.to_string(), "flush before signaling"))
      << res.status.to_string();
}

TEST(CheckCorpus, MpiLocalReadWithoutWinSync) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double v = 7.0;
      win.put(&v, sizeof(v), 1, 0);
      win.flush(1);
    }
    // The barrier orders the flushed put (no race) and guarantees it has
    // arrived at rank 1 — but window memory is NOT coherent: it stays
    // unapplied until a Win_sync/fence.
    c.barrier();
    if (c.rank() == 1) {
      win.local_read(0, 8);  // BUG: reads bytes an arrived put will change
    }
    win.fence();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(contains(res.status.to_string(), "missing MPI_Win_sync"))
      << res.status.to_string();
}

TEST(CheckCorpus, MpiPutNeverFlushedAtExit) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double v = 1.0;
      win.put(&v, sizeof(v), 1, 0);
      // BUG: rank finishes with the put still in flight.
    }
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(contains(res.status.to_string(),
                       "missing flush/quiet/fence before finishing"))
      << res.status.to_string();
}

TEST(CheckCorpus, MpiCreateWinCannotPairWithUserBarrier) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> buf(8, 0.0);
      c.create_win(buf.data(), buf.size() * sizeof(double));
    } else {
      c.barrier();
    }
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  const std::string s = res.status.to_string();
  EXPECT_TRUE(contains(s, "collective mismatch")) << s;
  EXPECT_TRUE(contains(s, "win.create")) << s;
}

TEST(CheckCorpus, MpiCreateWinEnteringLastAfterUserBarriers) {
  // The mismatching entrant is the last of its generation: the verdict
  // must not depend on whether the checker sees its signature before or
  // after that entry completes the rendezvous.
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    if (c.rank() < 2) {
      c.compute(1.0 + c.rank());
      c.barrier();
    } else {
      c.compute(10.0);
      std::vector<double> buf(8, 0.0);
      c.create_win(buf.data(), buf.size() * sizeof(double));
    }
  });
  EXPECT_EQ(res.status.to_string(),
            "FAILED_PRECONDITION: RMA checker: 1 violation(s)\n"
            "  [1] collective mismatch on mpi.world (gen 0): rank 2 "
            "@10.300us entered win.create but rank 0 @1.300us entered "
            "barrier");
}

// Six fences of one window, more generations than a 4-deep ring of sealed
// wave clocks holds. A second window is never fenced, so only the fence
// waves order its accesses: rank 0's get and rank 1's atomic on the same
// word take turns, one fence apart. With `racy_tail`, one more get and
// atomic follow the last fence with no fence between them; a closing
// barrier keeps rank 2's window alive until they are done.
Status fence_waves_order_other_window(bool racy_tail) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, checked());
  const auto res = mpi::World::run(eng, [racy_tail](mpi::Comm& c) {
    std::vector<std::uint64_t> a(8, 0);
    std::vector<std::uint64_t> b(8, 0);
    auto fenced = c.create_win(a.data(), a.size() * sizeof(std::uint64_t));
    auto other = c.create_win(b.data(), b.size() * sizeof(std::uint64_t));
    std::uint64_t v = 0;
    for (int gen = 0; gen < 6; ++gen) {
      if (c.rank() == 0 && gen % 2 == 0) other.get(&v, sizeof(v), 2, 0);
      if (c.rank() == 1 && gen % 2 == 1) other.fetch_add(1, 2, 0);
      fenced.fence();
    }
    if (racy_tail && c.rank() == 0) other.get(&v, sizeof(v), 2, 0);
    if (racy_tail && c.rank() == 1) {
      c.compute(100.0);
      other.fetch_add(1, 2, 0);  // BUG: nothing orders rank 0's get first
    }
    c.barrier();
  });
  return res.status;
}

TEST(CheckCorpus, FenceWavesPastTheRingOrderAnotherWindow) {
  EXPECT_EQ(fence_waves_order_other_window(false).to_string(), "OK");
  EXPECT_EQ(fence_waves_order_other_window(true).to_string(),
            "FAILED_PRECONDITION: RMA checker: 1 violation(s)\n"
            "  [1] race on win1@rank2: atomic by rank 1 @161.832us bytes "
            "[0, 8) conflicts with get by rank 0 @61.832us bytes [0, 8) — "
            "unordered in happens-before");
}

TEST(CheckCorpus, ShmemMissingQuietBeforePutSignal) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, checked());
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<double>(64);
    auto aux = s.allocate<double>(8);
    auto sig = s.allocate<std::uint64_t>(1);
    if (s.pe() == 0) {
      double src[64] = {0};
      s.put_nbi(data, src, 64, 1);
      // BUG: fused signal issued while the plain put is still in flight.
      s.put_signal_nbi(aux, src, 8, sig, 1, 1);
      s.quiet();
    }
    s.barrier_all();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(contains(res.status.to_string(), "quiet before put_signal"))
      << res.status.to_string();
}

TEST(CheckCorpus, ShmemOverlappingPuts) {
  const Status st = shmem_overlapping_puts(checked());
  ASSERT_EQ(st.code(), ErrorCode::kFailedPrecondition) << st.to_string();
  EXPECT_TRUE(contains(st.to_string(), "race on symheap@rank2"))
      << st.to_string();
}

TEST(CheckCorpus, ShmemAtomicRacesWithDataPut) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 3, checked());
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<std::uint64_t>(4);
    if (s.pe() == 0) {
      std::uint64_t src[4] = {0};
      s.put_nbi(data, src, 4, 2);  // plain data put covering the word
      s.quiet();
    } else if (s.pe() == 1) {
      s.atomic_fetch_add(data, 1, 2);  // atomic on the same word, unordered
    }
    s.barrier_all();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  const std::string st = res.status.to_string();
  EXPECT_TRUE(contains(st, "race on symheap@rank2")) << st;
  EXPECT_TRUE(contains(st, "atomic")) << st;
}

// The SHMEM twins of MpiGetRacesWithPut, MpiLocalReadWithoutWinSync and
// MpiPutNeverFlushedAtExit. They pin the whole verdict, so the shared RMA
// core must report SHMEM accesses exactly as minishmem always has.

TEST(CheckCorpus, ShmemGetRacesWithPut) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 3, checked());
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<double>(8);
    double v = 1.0;
    if (s.pe() == 0) {
      s.put_nbi(data, &v, 1, 2);
      s.quiet();
    } else if (s.pe() == 1) {
      s.get(&v, data, 1, 2);  // unordered against PE 0's put
    }
    s.barrier_all();
  });
  EXPECT_EQ(res.status.to_string(),
            "FAILED_PRECONDITION: RMA checker: 1 violation(s)\n"
            "  [1] race on symheap@rank2: get by rank 1 @0.500us bytes "
            "[0, 8) conflicts with put (in flight) by rank 0 @0.500us bytes "
            "[0, 8) — unordered in happens-before");
}

TEST(CheckCorpus, ShmemLocalReadOfUnappliedDelivery) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, checked());
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<double>(8);
    if (s.pe() == 0) {
      const double v = 7.0;
      s.put_nbi(data, &v, 1, 1);
      s.quiet();
    } else {
      // Long past the put's arrival, but nothing applied it: no
      // wait_until or barrier ran on this PE. The quiet is only a scheduling
      // point, so PE 0's put has run by the time the read is checked.
      s.compute(100.0);
      s.quiet();
      s.local_read(data);  // BUG: reads bytes an arrived put will change
    }
    s.barrier_all();
  });
  EXPECT_EQ(res.status.to_string(),
            "FAILED_PRECONDITION: RMA checker: 2 violation(s)\n"
            "  [1] sync misuse: local_read by rank 1 @100.500us of "
            "symheap@rank1 bytes [0, 8) overlaps an arrived but unapplied "
            "put — missing MPI_Win_sync / wait before reading\n"
            "  [2] race on symheap@rank1: local_read by rank 1 @100.500us "
            "bytes [0, 8) conflicts with put by rank 0 @0.500us bytes [0, 8) "
            "— unordered in happens-before");
}

TEST(CheckCorpus, ShmemLocalReadOfUnappliedDeliveryWithoutQuiet) {
  // ShmemLocalReadOfUnappliedDelivery with no scheduling point before the
  // read: the annotation itself is checked in virtual-time order, after
  // PE 0's put at 0.5 us, not when PE 1's host code reaches it.
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, checked());
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<double>(8);
    if (s.pe() == 0) {
      const double v = 7.0;
      s.put_nbi(data, &v, 1, 1);
      s.quiet();
    } else {
      s.compute(100.0);
      s.local_read(data);  // BUG: reads bytes an arrived put will change
    }
    s.barrier_all();
  });
  EXPECT_EQ(res.status.to_string(),
            "FAILED_PRECONDITION: RMA checker: 2 violation(s)\n"
            "  [1] sync misuse: local_read by rank 1 @100.000us of "
            "symheap@rank1 bytes [0, 8) overlaps an arrived but unapplied "
            "put — missing MPI_Win_sync / wait before reading\n"
            "  [2] race on symheap@rank1: local_read by rank 1 @100.000us "
            "bytes [0, 8) conflicts with put by rank 0 @0.500us bytes [0, 8) "
            "— unordered in happens-before");
}

TEST(CheckCorpus, ShmemGetRacesWithFirstLocalWrite) {
  // PE 1's local store is the heap's first access: it must be recorded for
  // PE 0's later, unsynchronized get to race with.
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, checked());
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<double>(8);
    if (s.pe() == 1) {
      s.local_write(data);
    } else {
      double v = 0;
      s.compute(10.0);
      s.get(&v, data, 1, 1);  // BUG: nothing orders PE 1's store first
    }
    s.barrier_all();
  });
  EXPECT_EQ(res.status.to_string(),
            "FAILED_PRECONDITION: RMA checker: 1 violation(s)\n"
            "  [1] race on symheap@rank1: get by rank 0 @10.500us bytes "
            "[0, 8) conflicts with local_write by rank 1 @0.000us bytes "
            "[0, 8) — unordered in happens-before");
}

TEST(CheckCorpus, ShmemPutNeverQuietedAtExit) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, checked());
  const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
    auto data = s.allocate<double>(8);
    if (s.pe() == 0) {
      const double v = 1.0;
      s.put_nbi(data, &v, 1, 1);
      // BUG: the PE finishes with the put still in flight.
    }
  });
  EXPECT_EQ(res.status.to_string(),
            "FAILED_PRECONDITION: RMA checker: 1 violation(s)\n"
            "  [1] sync misuse: put by rank 0 @0.500us to symheap@rank1 bytes "
            "[0, 8) was never completed — missing flush/quiet/fence before "
            "finishing");
}

// --- flush_local vs flush (the PR 8 soundness fixes) ----------------------
// MPI_Win_flush_local licenses origin-buffer reuse only. Pre-fix the checker
// had no notion of it at all: these programs were vetted as if no completion
// call had been made, so W1/W2 verdicts blamed a "never completed" put even
// when the program did call flush_local — the diagnostics pinned here did
// not exist.

TEST(CheckCorpus, MpiFlushLocalDoesNotDischargeSignalObligation) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(16, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double data[8] = {0};
      std::uint64_t sig = 1;
      win.put(data, sizeof(data), 1, 0);
      win.flush_local(1);  // BUG: local completion does not order delivery
      win.put(&sig, sizeof(sig), 1, 64, simnet::OpKind::kSignal);
      win.flush_all();
    }
    win.fence();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  const std::string s = res.status.to_string();
  EXPECT_TRUE(contains(s, "flush before signaling")) << s;
  EXPECT_TRUE(contains(s, "flush_local completed it locally only")) << s;
}

TEST(CheckCorpus, MpiFlushLocalLeakedToExit) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double v = 1.0;
      win.put(&v, sizeof(v), 1, 0);
      win.flush_local_all();  // BUG: rank finishes with no remote completion
    }
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  const std::string s = res.status.to_string();
  EXPECT_TRUE(contains(s, "completed only locally (flush_local is not "
                          "remote completion)"))
      << s;
  EXPECT_TRUE(contains(s, "missing flush/quiet/fence before finishing")) << s;
}

// Same program twice, differing only in the completion call: flush orders the
// put through the barrier (clean); flush_local leaves it in flight (race).
Status mpi_put_complete_then_read(EngineOptions opt, bool local_only) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, opt);
  const auto res = mpi::World::run(eng, [local_only](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double v = 1.0;
      win.put(&v, sizeof(v), 2, 0);
      if (local_only) {
        win.flush_local(2);
      } else {
        win.flush(2);
      }
    }
    c.barrier();
    if (c.rank() == 1) {
      double v = 0.0;
      win.get(&v, sizeof(v), 2, 0);
    }
    win.fence();
  });
  return res.status;
}

TEST(CheckCorpus, MpiFlushLocalDoesNotOrderRemoteReads) {
  const Status clean = mpi_put_complete_then_read(checked(), false);
  EXPECT_TRUE(clean.is_ok()) << clean.to_string();
  const Status racy = mpi_put_complete_then_read(checked(), true);
  ASSERT_EQ(racy.code(), ErrorCode::kFailedPrecondition);
  const std::string s = racy.to_string();
  EXPECT_TRUE(contains(s, "race on win0@rank2")) << s;
  EXPECT_TRUE(contains(s, "(in flight; flush_local only)")) << s;
}

TEST(CheckCorpus, MpiFlushWrongTargetDoesNotDischargeExitObligation) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double v = 1.0;
      win.put(&v, sizeof(v), 1, 0);
      win.put(&v, sizeof(v), 2, 0);
      win.flush(1);  // BUG: completes the put to rank 1 only
    }
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  const std::string s = res.status.to_string();
  EXPECT_TRUE(contains(s, "to win0@rank2")) << s;
  EXPECT_FALSE(contains(s, "to win0@rank1")) << s;
}

TEST(CheckCorpus, MpiFlushWrongTargetDoesNotDischargeSignalObligation) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(16, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double data[8] = {0};
      std::uint64_t sig = 1;
      win.put(data, sizeof(data), 2, 0);
      win.flush(1);  // BUG: wrong target; the put to rank 2 is still in flight
      win.put(&sig, sizeof(sig), 2, 64, simnet::OpKind::kSignal);
      win.flush_all();
    }
    win.fence();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(contains(res.status.to_string(), "flush before signaling"))
      << res.status.to_string();
}

TEST(CheckCorpus, MultiWriterRaceReportsFirstDivergencePairOnly) {
  // Four unordered writers to the same bytes: quadratic pair reporting would
  // emit 6 lines; first-divergence reporting emits one per racing access.
  Engine eng(simnet::Platform::perlmutter_cpu(1), 5, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    double v = c.rank();
    if (c.rank() < 4) {
      win.put(&v, sizeof(v), 4, 0);
      win.flush(4);
    }
    win.fence();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  const std::string s = res.status.to_string();
  EXPECT_TRUE(contains(s, "RMA checker: 3 violation(s)")) << s;
}

// --- clean programs: zero false positives ---------------------------------

TEST(CheckClean, FlushLocalThenFlushIsClean) {
  // The hashtable's Treiber push pattern: put, flush_local (reuse the source
  // buffer), then real flush before anyone reads. Must stay verdict-free.
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    if (c.rank() == 0) {
      double v = 1.0;
      win.put(&v, sizeof(v), 1, 0);
      win.flush_local(1);
      v = 2.0;  // source buffer legally reused after flush_local
      win.put(&v, sizeof(v), 1, 0);
      win.flush(1);
    }
    win.fence();
  });
  ASSERT_TRUE(res.ok()) << res.status.to_string();
}


TEST(CheckClean, FencedPutsAndSignalWaitPatternsPass) {
  // MPI: the paper's fence-delimited exchange. Also exercises Win_sync.
  {
    Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
    const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
      std::vector<double> buf(8, 0.0);
      auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
      win.fence();
      double v = c.rank();
      win.put(&v, sizeof(v), 1 - c.rank(), 0);
      win.flush(1 - c.rank());
      win.fence();
      win.local_read(0, 8);  // ordered: the fence applied everything
      win.fence();
    });
    ASSERT_TRUE(res.ok()) << res.status.to_string();
  }
  // SHMEM: put-with-signal + wait_until + quiet (the paper's GPU pattern).
  {
    Engine eng(simnet::Platform::perlmutter_gpu(), 2, checked());
    const auto res = shmem::World::run(eng, [](shmem::Ctx& s) {
      auto data = s.allocate<double>(64);
      auto sig = s.allocate<std::uint64_t>(1);
      if (s.pe() == 0) {
        double src[64] = {0};
        s.put_signal_nbi(data, src, 64, sig, 1, 1);
        s.quiet();
      } else {
        s.wait_until(sig, 1);
        s.local_read(data, 64);  // ordered through the signal wait
      }
      s.barrier_all();
    });
    ASSERT_TRUE(res.ok()) << res.status.to_string();
  }
}

TEST(CheckClean, AllPaperWorkloadsRunCleanUnderChecker) {
  check::set_default_check(true);
  const auto cpu = simnet::Platform::perlmutter_cpu(1);
  const auto gpu = simnet::Platform::perlmutter_gpu();

  workloads::stencil::Config scfg;
  scfg.n = 64;
  scfg.iters = 2;
  for (const auto& r : {workloads::stencil::run_two_sided(cpu, 4, scfg),
                        workloads::stencil::run_one_sided(cpu, 4, scfg),
                        workloads::stencil::run_shmem_gpu(gpu, 4, scfg),
                        workloads::stencil::run_host_staged_gpu(gpu, 4, scfg)}) {
    EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  }

  workloads::sptrsv::GenConfig g;
  g.n = 400;
  const auto L = workloads::sptrsv::SupernodalMatrix::generate(g);
  workloads::sptrsv::Config pcfg;
  for (const auto& r : {workloads::sptrsv::run_two_sided(cpu, 4, L, pcfg),
                        workloads::sptrsv::run_one_sided(cpu, 4, L, pcfg),
                        workloads::sptrsv::run_shmem_gpu(gpu, 4, L, pcfg)}) {
    EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  }

  workloads::hashtable::Config hcfg;
  hcfg.total_inserts = 2000;
  for (const auto& r : {workloads::hashtable::run_one_sided(cpu, 4, hcfg),
                        workloads::hashtable::run_two_sided(cpu, 4, hcfg),
                        workloads::hashtable::run_shmem_gpu(gpu, 4, hcfg)}) {
    EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  }
  check::set_default_check(false);
}

// --- determinism ----------------------------------------------------------

TEST(CheckIdentity, VerdictBytesIdenticalAcrossSchedulers) {
  std::vector<std::string> mpi_verdicts;
  std::vector<std::string> shmem_verdicts;
  for (SchedulerKind sched :
       {SchedulerKind::kIndexedHeap, SchedulerKind::kLinearScan}) {
    EngineOptions o = checked();
    o.scheduler = sched;
    mpi_verdicts.push_back(mpi_overlapping_puts(o).to_string());
    shmem_verdicts.push_back(shmem_overlapping_puts(o).to_string());
  }
  EXPECT_EQ(mpi_verdicts[0], mpi_verdicts[1]);
  EXPECT_EQ(shmem_verdicts[0], shmem_verdicts[1]);
  EXPECT_TRUE(contains(mpi_verdicts[0], "race on"));
  EXPECT_TRUE(contains(shmem_verdicts[0], "race on"));
}

TEST(CheckZeroPerturbation, CheckerOnLeavesSimulatedTimeIdentical) {
  const auto cpu = simnet::Platform::perlmutter_cpu(1);
  workloads::stencil::Config cfg;
  cfg.n = 64;
  cfg.iters = 2;
  const auto plain = workloads::stencil::run_one_sided(cpu, 4, cfg);
  check::set_default_check(true);
  const auto under_check = workloads::stencil::run_one_sided(cpu, 4, cfg);
  check::set_default_check(false);
  ASSERT_TRUE(plain.status.is_ok());
  ASSERT_TRUE(under_check.status.is_ok());
  EXPECT_EQ(plain.time_us, under_check.time_us);
}

// --- metrics + diagnostics satellites -------------------------------------

TEST(CheckMetrics, ViolationsCounterFamilyPublishes) {
  EngineOptions o = checked();
  o.metrics = true;
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, o);
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    double v = c.rank();
    if (c.rank() < 2) {
      win.put(&v, sizeof(v), 2, 0);
      win.flush(2);
    }
    win.fence();
  });
  ASSERT_EQ(res.status.code(), ErrorCode::kFailedPrecondition);
  const runtime::MetricsReport rep = eng.metrics_report();
  std::uint64_t total = 0;
  for (const auto& r : rep.ranks) total += r.ops.violations;
  EXPECT_GE(total, 1u);
}

TEST(CheckDiagnostics, DeadlockReportsLastBlockingOpOfDoneRanks) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    double v = 0;
    if (c.rank() == 0) {
      c.send(&v, sizeof(v), 1, 0);
      c.recv(&v, sizeof(v), 1, 0);  // never sent: deadlock once rank 1 exits
    } else {
      c.recv(&v, sizeof(v), 0, 0);
    }
  });
  ASSERT_FALSE(res.ok());
  const std::string s = res.status.to_string();
  EXPECT_TRUE(contains(s, "recv")) << s;
  EXPECT_TRUE(contains(s, "last blocked on [recv]")) << s;
}

TEST(CheckDiagnostics, DeadlockNoteNamesStragglersOfOpenCollective) {
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, checked());
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    if (c.rank() == 0) c.barrier();  // rank 1 never joins
  });
  ASSERT_FALSE(res.ok());
  const std::string s = res.status.to_string();
  EXPECT_TRUE(contains(s, "collective mpi.world gen 0: 1/2 entered (barrier)"))
      << s;
  EXPECT_TRUE(contains(s, "waiting for ranks 1")) << s;
}

TEST(CheckDisabled, ChecksAreFreeWhenOff) {
  // Same bad program, checker off: the run must succeed untouched.
  EngineOptions o;
  o.check = false;
  const Status st = mpi_overlapping_puts(o);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
}

TEST(CheckDisabled, CheckerOffRunDropsEarlierVerdicts) {
  // A racy checked run, then a clean run with the checker switched off on
  // the same engine: the second run's report must not carry the first's.
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, checked());
  const auto racy = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(8, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    double v = c.rank();
    if (c.rank() < 2) {
      win.put(&v, sizeof(v), 2, 0);
      win.flush(2);
    }
    win.fence();
  });
  ASSERT_EQ(racy.status.code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(eng.checker().has_violations());

  eng.checker().set_enabled(false);
  const auto clean = mpi::World::run(eng, [](mpi::Comm& c) { c.barrier(); });
  ASSERT_TRUE(clean.ok()) << clean.status.to_string();
  EXPECT_FALSE(eng.checker().has_violations());
  EXPECT_EQ(eng.checker().violation_count(), 0u);
  EXPECT_TRUE(eng.checker().violations().empty());
  for (const std::uint64_t n : eng.checker().violation_counts()) {
    EXPECT_EQ(n, 0u);
  }
  EXPECT_EQ(eng.checker().report(), "RMA checker: 0 violation(s)");
}

}  // namespace
}  // namespace mrl
