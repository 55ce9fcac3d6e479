// Engine semantics: virtual-time ordering, determinism, blocking/waking,
// deadlock detection, error propagation.
//
// Identity contracts are checked differentially against the linear-scan
// scheduler, the engine's brute-force oracle. The suite also runs under
// ThreadSanitizer on the annotated fibers (runtime/fiber.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/engine.hpp"
#include "simnet/platform.hpp"

namespace mrl::runtime {
namespace {

simnet::Platform plat() { return simnet::Platform::perlmutter_cpu(); }

TEST(Engine, RunsAllRanksToCompletion) {
  Engine eng(plat(), 8);
  std::vector<int> visited(8, 0);
  const RunResult r = eng.run([&](Rank& rank) { visited[rank.id()] = 1; });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  for (int v : visited) EXPECT_EQ(v, 1);
  EXPECT_EQ(r.rank_end_us.size(), 8u);
}

TEST(Engine, AdvanceAccumulatesVirtualTime) {
  Engine eng(plat(), 2);
  const RunResult r = eng.run([](Rank& rank) {
    EXPECT_DOUBLE_EQ(rank.now(), 0.0);
    rank.advance(1.5);
    rank.advance(2.5);
    EXPECT_DOUBLE_EQ(rank.now(), 4.0);
  });
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.makespan_us, 4.0);
}

TEST(Engine, PerformExecutesInGlobalClockOrder) {
  Engine eng(plat(), 4);
  std::vector<int> order;
  const RunResult r = eng.run([&](Rank& rank) {
    // Rank i performs at time 10*(3 - i): rank 3 first, rank 0 last.
    rank.advance(10.0 * (3 - rank.id()));
    eng.perform(rank, [&] { order.push_back(rank.id()); });
  });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Engine, TiesBrokenByRankId) {
  Engine eng(plat(), 4);
  std::vector<int> order;
  const RunResult r = eng.run([&](Rank& rank) {
    rank.advance(5.0);
    eng.perform(rank, [&] { order.push_back(rank.id()); });
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, WaitWakesAtConditionTime) {
  Engine eng(plat(), 2);
  double flag_time = -1;
  std::uint64_t flag = 0;  // the gate counter: the setting perform bumps it
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(7.0);
      eng.perform(rank, [&] {
        ++flag;
        flag_time = rank.now();
      });
    } else {
      eng.wait(rank, "flag", WaitGate{&flag, 1},
               [&]() -> std::optional<double> {
                 if (flag == 0) return std::nullopt;
                 return flag_time + 3.0;
               });
      EXPECT_DOUBLE_EQ(rank.now(), 10.0);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, WaitDoesNotGoBackwards) {
  Engine eng(plat(), 2);
  std::uint64_t flag = 0;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      eng.perform(rank, [&] { ++flag; });
    } else {
      rank.advance(50.0);
      eng.wait(rank, "flag", WaitGate{&flag, 1},
               [&]() -> std::optional<double> {
                 return flag != 0 ? std::optional<double>(1.0) : std::nullopt;
               });
      // Wake time 1.0 is in this rank's past; clock must not regress.
      EXPECT_DOUBLE_EQ(rank.now(), 50.0);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, DeadlockIsDetectedAndReported) {
  Engine eng(plat(), 2);
  const std::uint64_t never = 0;  // no perform advances it
  const RunResult r = eng.run([&](Rank& rank) {
    eng.wait(rank, "never-satisfied", WaitGate{&never, 1},
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kDeadlock);
  EXPECT_NE(r.status.message().find("never-satisfied"), std::string::npos);
}

TEST(Engine, PartialDeadlockAlsoDetected) {
  // One rank finishes; the other waits forever.
  Engine eng(plat(), 2);
  const std::uint64_t never = 0;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 1) {
      eng.wait(rank, "orphan wait", WaitGate{&never, 1},
               []() -> std::optional<double> { return std::nullopt; });
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kDeadlock);
}

TEST(Engine, BodyExceptionIsPropagatedNotCrashed) {
  Engine eng(plat(), 4);
  const std::uint64_t never = 0;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 2) throw std::runtime_error("boom");
    // Other ranks block; the abort must unwind them.
    eng.wait(rank, "forever", WaitGate{&never, 1},
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status.message().find("boom"), std::string::npos);
}

TEST(Engine, DeterministicAcrossRepeatedRuns) {
  Engine eng(plat(), 16);
  auto body = [&](Rank& rank) {
    for (int i = 0; i < 20; ++i) {
      rank.advance(0.1 * ((rank.id() * 7 + i) % 5 + 1));
      eng.perform(rank, [] {});
    }
  };
  const RunResult a = eng.run(body);
  const RunResult b = eng.run(body);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.rank_end_us.size(), b.rank_end_us.size());
  for (std::size_t i = 0; i < a.rank_end_us.size(); ++i) {
    EXPECT_EQ(a.rank_end_us[i], b.rank_end_us[i]) << "rank " << i;
  }
}

TEST(Engine, ManyRanksComplete) {
  Engine eng(plat(), 128);
  std::atomic<int> count{0};
  const RunResult r = eng.run([&](Rank& rank) {
    rank.advance(static_cast<double>(rank.id()));
    eng.perform(rank, [&] { count.fetch_add(1); });
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(count.load(), 128);
  EXPECT_DOUBLE_EQ(r.makespan_us, 127.0);
}

TEST(Engine, ReusesExecutionContextsAcrossManyRuns) {
  // The sweep runner calls run() thousands of times per engine; rank
  // fibers are created once and parked between runs, and every run
  // must start from pristine clocks/epochs/trace regardless of history.
  EngineOptions opt;
  opt.trace = true;
  Engine eng(plat(), 4, opt);
  auto body = [&](Rank& rank) {
    EXPECT_DOUBLE_EQ(rank.now(), 0.0);   // clock reset by run()
    EXPECT_EQ(rank.epoch(), 0u);         // epoch reset by run()
    rank.advance(1.0 + rank.id());
    rank.bump_epoch();
    eng.perform(rank, [] {});
  };
  for (int i = 0; i < 100; ++i) {
    const RunResult r = eng.run(body);
    ASSERT_TRUE(r.ok()) << "run " << i << ": " << r.status.to_string();
    EXPECT_DOUBLE_EQ(r.makespan_us, 4.0) << "run " << i;
    ASSERT_EQ(r.rank_end_us.size(), 4u);
    for (int id = 0; id < 4; ++id) {
      EXPECT_DOUBLE_EQ(r.rank_end_us[static_cast<std::size_t>(id)],
                       1.0 + id)
          << "run " << i;
    }
  }
}

TEST(Engine, CleanRunAfterDeadlockedRun) {
  Engine eng(plat(), 2);
  const std::uint64_t never = 0;
  // Run 1: deadlock — both ranks block forever.
  const RunResult bad = eng.run([&](Rank& rank) {
    eng.wait(rank, "never", WaitGate{&never, 1},
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status.code(), ErrorCode::kDeadlock);

  // Run 2 on the same engine (same parked contexts) must be pristine: no
  // leftover abort flag, grants, or blocked bookkeeping.
  std::uint64_t flag = 0;
  const RunResult good = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(2.0);
      eng.perform(rank, [&] { ++flag; });
    } else {
      eng.wait(rank, "flag", WaitGate{&flag, 1},
               [&]() -> std::optional<double> {
                 return flag != 0 ? std::optional<double>(3.0) : std::nullopt;
               });
      EXPECT_DOUBLE_EQ(rank.now(), 3.0);
    }
  });
  ASSERT_TRUE(good.ok()) << good.status.to_string();
  EXPECT_DOUBLE_EQ(good.makespan_us, 3.0);

  // Run 3: deadlock again, then run 4 clean again — alternating states.
  const RunResult bad2 = eng.run([&](Rank& rank) {
    if (rank.id() == 1) {
      eng.wait(rank, "orphan", WaitGate{&never, 1},
               []() -> std::optional<double> { return std::nullopt; });
    }
  });
  EXPECT_EQ(bad2.status.code(), ErrorCode::kDeadlock);
  const RunResult good2 = eng.run([](Rank& rank) { rank.advance(1.0); });
  ASSERT_TRUE(good2.ok());
  EXPECT_DOUBLE_EQ(good2.makespan_us, 1.0);
}

TEST(Engine, CleanRunAfterBodyExceptionRun) {
  Engine eng(plat(), 2);
  const std::uint64_t never = 0;
  const RunResult bad = eng.run([&](Rank& rank) {
    if (rank.id() == 0) throw std::runtime_error("boom");
    eng.wait(rank, "forever", WaitGate{&never, 1},
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(bad.ok());
  const RunResult good = eng.run([](Rank& rank) { rank.advance(5.0); });
  ASSERT_TRUE(good.ok()) << good.status.to_string();
  EXPECT_DOUBLE_EQ(good.makespan_us, 5.0);
}

TEST(Engine, TraceResetsBetweenRuns) {
  EngineOptions opt;
  opt.trace = true;
  Engine eng(plat(), 2, opt);
  auto record_one = [&](Rank& rank) {
    if (rank.id() == 0) {
      eng.perform(rank, [&] {
        simnet::MsgRecord rec;
        rec.src_rank = 0;
        rec.dst_rank = 1;
        rec.bytes = 8;
        eng.trace().record(rec);
      });
    }
  };
  ASSERT_TRUE(eng.run(record_one).ok());
  EXPECT_EQ(eng.trace().records().size(), 1u);
  EXPECT_EQ(eng.trace().summarize().num_msgs, 1u);
  // A second run starts a fresh trace instead of accumulating, and so do
  // the summaries folded alongside it.
  ASSERT_TRUE(eng.run(record_one).ok());
  EXPECT_EQ(eng.trace().records().size(), 1u);
  const simnet::TraceSummary s = eng.trace().summarize();
  EXPECT_EQ(s.num_msgs, 1u);
  EXPECT_EQ(s.num_epochs, 1u);
  EXPECT_DOUBLE_EQ(s.total_bytes, 8.0);
  EXPECT_EQ(eng.trace().summarize(simnet::OpKind::kSend).num_msgs, 1u);
}

TEST(Engine, RepeatedRunsAreDeterministicWithBlockingWaits) {
  // Exercises the targeted-handoff scheduler: blocked ranks are re-queued
  // without waking, so repeated runs of a blocking workload must still give
  // identical clocks.
  Engine eng(plat(), 6);
  std::vector<double> flags_time(6, -1.0);
  std::vector<std::uint64_t> flags(6, 0);  // per-rank gate counters
  auto body = [&](Rank& rank) {
    const auto mine = static_cast<std::size_t>(rank.id());
    const auto peer = static_cast<std::size_t>((rank.id() + 1) % 6);
    rank.advance(0.5 * (rank.id() + 1));
    eng.perform(rank, [&] {
      ++flags[mine];
      flags_time[mine] = rank.now();
    });
    eng.wait(rank, "peer flag", WaitGate{&flags[peer], 1},
             [&]() -> std::optional<double> {
               if (flags[peer] == 0) return std::nullopt;
               return flags_time[peer] + 0.25;
             });
  };
  // Counters only change inside performs; a fresh run starts them at 0.
  auto run_once = [&] {
    std::fill(flags.begin(), flags.end(), 0);
    return eng.run(body);
  };
  const RunResult a = run_once();
  ASSERT_TRUE(a.ok()) << a.status.to_string();
  for (int i = 0; i < 20; ++i) {
    const RunResult b = run_once();
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.rank_end_us.size(), b.rank_end_us.size());
    for (std::size_t j = 0; j < a.rank_end_us.size(); ++j) {
      EXPECT_EQ(a.rank_end_us[j], b.rank_end_us[j]) << "run " << i;
    }
  }
}

TEST(Engine, RejectsMoreRanksThanPlatformHosts) {
  EXPECT_DEATH(Engine(simnet::Platform::perlmutter_gpu(), 5),
               "more ranks than the platform");
}

TEST(Engine, EpochBumpTracked) {
  Engine eng(plat(), 1);
  const RunResult r = eng.run([&](Rank& rank) {
    EXPECT_EQ(rank.epoch(), 0u);
    rank.bump_epoch();
    rank.bump_epoch();
    EXPECT_EQ(rank.epoch(), 2u);
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, WatchdogConvertsLivelockToTimeout) {
  // A rank that keeps making virtual-time "progress" without ever reaching
  // its wait condition is a livelock the deadlock detector cannot see: the
  // rank is always runnable. The watchdog caps virtual time instead.
  EngineOptions opt;
  opt.watchdog_virtual_us = 500.0;
  Engine eng(plat(), 2, opt);
  const RunResult r = eng.run([&](Rank& rank) {
    for (;;) {
      rank.advance(10.0);
      eng.perform(rank, [] {});  // retry loop: spins forever
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
  EXPECT_NE(r.status.message().find("watchdog"), std::string::npos)
      << r.status.message();
  // Diagnostics name the per-rank clocks.
  EXPECT_NE(r.status.message().find("rank 0"), std::string::npos)
      << r.status.message();
}

TEST(Engine, WatchdogAlsoTripsInsideWaits) {
  EngineOptions opt;
  opt.watchdog_virtual_us = 200.0;
  Engine eng(plat(), 2, opt);
  const std::uint64_t never = 0;  // satisfiable at entry: the gate is unused
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      // Waits that keep resolving a little further in the future: never
      // blocked (no deadlock), never done.
      for (;;) {
        const double target = rank.now() + 50.0;
        eng.wait(rank, "chasing-horizon", WaitGate{&never, 1},
                 [target]() -> std::optional<double> { return target; });
      }
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
}

TEST(Engine, CleanRunAfterWatchdogTimeout) {
  EngineOptions opt;
  opt.watchdog_virtual_us = 300.0;
  Engine eng(plat(), 2, opt);
  const RunResult bad = eng.run([&](Rank& rank) {
    for (;;) {
      rank.advance(25.0);
      eng.perform(rank, [] {});
    }
  });
  ASSERT_EQ(bad.status.code(), ErrorCode::kTimeout);
  // The engine must stay usable, and a run that finishes under the limit
  // must be untouched by the watchdog.
  const RunResult good = eng.run([&](Rank& rank) {
    rank.advance(100.0);
    eng.perform(rank, [] {});
  });
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good.makespan_us, 100.0);
}

TEST(Engine, StragglerScalesComputeNotWaits) {
  // With a straggler_prob of 1 every rank is a straggler; compute_scale()
  // must reflect the factor while plain advance() stays unscaled.
  simnet::Platform p = plat();
  simnet::FaultSpec spec;
  spec.straggler_prob = 1.0;
  spec.straggler_factor = 3.0;
  p.set_faults(spec);
  Engine eng(p, 2);
  const RunResult r = eng.run([&](Rank& rank) {
    EXPECT_DOUBLE_EQ(rank.compute_scale(), 3.0);
    rank.advance(10.0);  // absolute virtual time: not scaled
    EXPECT_DOUBLE_EQ(rank.now(), 10.0);
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, ReentrantRunReturnsInvalidArgument) {
  // A rank body that calls run() again on its own engine must get a clean
  // error status back — not a crash, not a hang — and the outer run must
  // complete normally.
  Engine eng(plat(), 2);
  Status inner_status;
  const RunResult outer = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      const RunResult inner = eng.run([](Rank&) {});
      inner_status = inner.status;
    }
    rank.advance(1.0);
  });
  ASSERT_TRUE(outer.ok()) << outer.status.to_string();
  EXPECT_EQ(inner_status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(inner_status.message().find("reentrant"), std::string::npos);
  // The guard must release: a fresh top-level run still works.
  EXPECT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
}

TEST(EngineFibers, TwoThousandRanksRunOnOneThread) {
  // The headline scaling win: 2048 ranks as fibers on a single OS thread —
  // a rank count where spawning one OS thread per rank is already at or
  // past typical ulimit/VM limits. Trivial body plus a ring of sends so the
  // scheduler, waker, and blocking paths all engage at scale.
  const int n = 2048;
  EngineOptions opt;
  opt.fiber_stack_bytes = 128 * 1024;  // 2048 * 128KiB = 256MiB virtual
  Engine eng(simnet::Platform::perlmutter_cpu(/*nodes=*/16), n, opt);
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(n), 0);
  std::vector<double> sent_time(static_cast<std::size_t>(n), 0.0);
  const RunResult r = eng.run([&](Rank& rank) {
    const auto id = static_cast<std::size_t>(rank.id());
    const auto prev = static_cast<std::size_t>((rank.id() + n - 1) % n);
    rank.advance(0.01 * (rank.id() % 7 + 1));
    // "Send" to the successor...
    eng.perform(rank, [&] {
      ++sent[id];
      sent_time[id] = rank.now();
    });
    // ...and block until the predecessor's send arrives.
    eng.wait(rank, "ring recv", WaitGate{&sent[prev], 1},
             [&]() -> std::optional<double> {
               if (sent[prev] == 0) return std::nullopt;
               return sent_time[prev] + 0.1;
             });
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  ASSERT_EQ(r.rank_end_us.size(), static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    EXPECT_GT(r.rank_end_us[static_cast<std::size_t>(id)], 0.0)
        << "rank " << id;
  }
}

TEST(EngineCrossScheduler, BitIdenticalClocksAndTraces) {
  // The indexed-heap scheduler must be a drop-in replacement for the linear
  // scan: same grant order (including the lowest-id tie-break), same clocks,
  // same trace bytes. The body manufactures wake-time ties (many ranks
  // advancing by identical deltas) plus blocking waits so both pick_min and
  // wake paths are exercised.
  const int n = 12;
  auto run_config = [&](SchedulerKind sched) {
    EngineOptions opt;
    opt.scheduler = sched;
    opt.trace = true;
    Engine eng(plat(), n, opt);
    std::vector<std::uint64_t> flags(static_cast<std::size_t>(n), 0);
    std::vector<double> flag_time(static_cast<std::size_t>(n), 0.0);
    const RunResult r = eng.run([&](Rank& rank) {
      const int id = rank.id();
      const int peer = (id + 5) % n;
      for (int i = 0; i < 8; ++i) {
        // Half the ranks advance by the SAME amount each round — guaranteed
        // wake-time ties that only the lowest-id rule orders.
        rank.advance(id % 2 == 0 ? 1.0 : 0.25 * ((id + i) % 3 + 1));
        eng.perform(rank, [&] {
          simnet::MsgRecord rec;
          rec.src_rank = id;
          rec.dst_rank = peer;
          rec.bytes = 32u * static_cast<std::uint64_t>(i + 1);
          rec.t_issue = rank.now();
          rec.t_arrival = rank.now() + 2.0;
          eng.trace().record(rec);
        });
      }
      eng.perform(rank, [&] {
        ++flags[static_cast<std::size_t>(id)];
        flag_time[static_cast<std::size_t>(id)] = rank.now();
      });
      const auto prev = static_cast<std::size_t>((id + n - 1) % n);
      eng.wait(rank, "peer", WaitGate{&flags[prev], 1},
               [&]() -> std::optional<double> {
                 if (flags[prev] == 0) return std::nullopt;
                 return flag_time[prev] + 0.125;
               });
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return std::make_pair(r, eng.trace().records());
  };

  const auto [r0, t0] = run_config(SchedulerKind::kIndexedHeap);
  const auto [r, t] = run_config(SchedulerKind::kLinearScan);
  EXPECT_EQ(r.makespan_us, r0.makespan_us);
  ASSERT_EQ(r.rank_end_us.size(), r0.rank_end_us.size());
  for (std::size_t i = 0; i < r0.rank_end_us.size(); ++i) {
    EXPECT_EQ(r.rank_end_us[i], r0.rank_end_us[i]) << "rank " << i;
  }
  ASSERT_EQ(t.size(), t0.size());
  for (std::size_t i = 0; i < t0.size(); ++i) {
    EXPECT_EQ(t[i].src_rank, t0[i].src_rank) << i;
    EXPECT_EQ(t[i].t_issue, t0[i].t_issue) << i;
    EXPECT_EQ(t[i].t_arrival, t0[i].t_arrival) << i;
  }
}

TEST(EngineWaitGate, GatedBarrierMatchesUngatedOracleAcrossSchedulers) {
  // WaitGate semantics (DESIGN.md §10): a generation-counter barrier built
  // exactly like rma::Rendezvous::join, with the gate passed through
  // Engine::wait. The heap scheduler parks gated waiters in the threshold
  // heap; the linear scheduler ignores the gate and brute-force re-evaluates
  // every condition. Identical clocks under both prove the gated fast path
  // wakes the same ranks at the same times as the oracle.
  const int n = 10;
  auto run_config = [&](SchedulerKind sched) {
    EngineOptions opt;
    opt.scheduler = sched;
    Engine eng(plat(), n, opt);
    std::uint64_t generation = 0;
    int entered = 0;
    double max_enter = 0.0;
    std::array<double, 4> done{};
    const RunResult r = eng.run([&](Rank& rank) {
      for (int round = 0; round < 5; ++round) {
        // Uneven arrivals (with ties) so the barrier actually reorders.
        rank.advance(0.5 * ((rank.id() + round) % 4));
        std::uint64_t my_gen = 0;
        eng.perform(rank, [&] {
          my_gen = generation;
          if (entered == 0) max_enter = 0.0;
          ++entered;
          max_enter = std::max(max_enter, rank.now());
          if (entered == n) {
            done[my_gen % done.size()] = max_enter + 1.0;
            entered = 0;
            ++generation;
          }
        });
        eng.wait(
            rank, "test.barrier", WaitGate{&generation, my_gen + 1},
            [&]() -> std::optional<double> {
              if (generation <= my_gen) return std::nullopt;
              return done[my_gen % done.size()];
            });
      }
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return r;
  };

  const RunResult heap = run_config(SchedulerKind::kIndexedHeap);
  const RunResult linear = run_config(SchedulerKind::kLinearScan);
  EXPECT_EQ(linear.makespan_us, heap.makespan_us);
  ASSERT_EQ(linear.rank_end_us.size(), heap.rank_end_us.size());
  for (std::size_t i = 0; i < heap.rank_end_us.size(); ++i) {
    EXPECT_EQ(linear.rank_end_us[i], heap.rank_end_us[i]) << "rank " << i;
  }
}

TEST(EngineWaitGate, UnreachedGateStillReportsDeadlock) {
  // A gated waiter whose counter never advances must be caught by the
  // engine's deadlock detector (gated ranks are kBlocked and counted), not
  // silently parked forever.
  EngineOptions opt;
  opt.scheduler = SchedulerKind::kIndexedHeap;
  Engine eng(plat(), 2, opt);
  std::uint64_t counter = 0;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      eng.wait(
          rank, "gate.never", WaitGate{&counter, 1},
          [&]() -> std::optional<double> {
            if (counter == 0) return std::nullopt;
            return 1.0;
          });
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status.to_string().find("deadlock"), std::string::npos)
      << r.status.to_string();
  EXPECT_NE(r.status.to_string().find("gate.never"), std::string::npos)
      << r.status.to_string();
}

TEST(EngineWaitGate, NullGateCounterAbortsUnderBothSchedulers) {
  // The gate is how a blocked rank is ever woken under the heap scheduler,
  // so a wait without one is rejected at entry — even a wait satisfiable
  // at once, and even under the linear scan, which ignores gates.
  for (const SchedulerKind sched :
       {SchedulerKind::kIndexedHeap, SchedulerKind::kLinearScan}) {
    EngineOptions opt;
    opt.scheduler = sched;
    EXPECT_DEATH(
        {
          Engine eng(plat(), 1, opt);
          (void)eng.run([&](Rank& rank) {
            eng.wait(rank, "gate.null", WaitGate{},
                     []() -> std::optional<double> { return 0.0; });
          });
        },
        "WaitGate counter")
        << to_string(sched);
  }
}

// Small deterministic 4-rank run touching every self-counter: performs that
// keep the baton and performs that switch, a gated wait whose first crossing
// fails and is re-parked, and a collective-style one satisfiable as soon as
// its counter reaches the threshold.
RunResult run_counter_workload(Engine& eng) {
  std::uint64_t ctr = 0;
  bool flag = false;
  std::uint64_t arrived = 0;
  return eng.run([&](Rank& rank) {
    rank.advance(1.0 * rank.id());
    eng.perform(rank, [&] { ++arrived; });
    if (rank.id() == 0) {
      eng.wait(
          rank, "test.gated", WaitGate{&ctr, 1},
          [&]() -> std::optional<double> {
            if (!flag) return std::nullopt;
            return 10.0;
          });
    } else if (rank.id() == 1) {
      eng.perform(rank, [&] { ++ctr; });  // crossing, cond still false
      rank.advance(2.0);
      eng.perform(rank, [&] {
        flag = true;
        ++ctr;
      });
    } else {
      eng.wait(rank, "test.arrival", WaitGate{&arrived, 4},
               [&]() -> std::optional<double> {
                 if (arrived < 4) return std::nullopt;
                 return 5.0;
               });
    }
    eng.perform(rank, [] {});
  });
}

TEST(EngineCounters, PinnedOnSmallRunAndRepeatAcrossRuns) {
  EngineOptions opt;
  opt.scheduler = SchedulerKind::kIndexedHeap;
  Engine eng(plat(), 4, opt);
  ASSERT_TRUE(run_counter_workload(eng).ok());
  const EngineCounters c = eng.counters();
  // Hand-traced, queue entries as (wake, id):
  //  1. Rank 0 (clock 0) performs, arrived=1, keeping the baton over (0, 1);
  //     its wait fails (eval 1) and parks on ctr >= 1.
  //  2. Ranks 1, 2, 3 (clocks 1, 2, 3) each perform: re-queued at (1, 1),
  //     (2, 2), (3, 3), a wave, and each switches to the next.
  //  3. Rank 1 runs: arrived=2. Its ++ctr keeps the baton over (2, 2) and
  //     crosses rank 0's gate (crossing 1, eval 2): flag is false, so rank 0
  //     re-parks on ctr >= 2. Rank 1 advances to 3 and re-queues at (3, 1).
  //  4. Rank 2 runs: arrived=3; its wait fails (eval 3), parks on
  //     arrived >= 4.
  //  5. Rank 1 runs: flag=true, ctr=2, crossing 2 (eval 4) wakes rank 0 at
  //     (10, 0). Its last perform keeps the baton over (3, 3); it finishes.
  //  6. Rank 3 runs: arrived=4, crossing 3 (eval 5) wakes rank 2 at (5, 2).
  //     Rank 3's wait holds at entry (eval 6) but (5, 3) is behind (5, 2).
  //  7. Ranks 2, 3, 0 are granted in that order. Woken from a park, ranks 2
  //     and 0 re-test their conditions and then read the wake time (evals
  //     7-8 and 10-11); rank 3, granted on its satisfiable-at-entry path,
  //     only reads the wake time (eval 9). Each finishes with a keep-baton
  //     perform.
  EXPECT_EQ(c.performs, 10u);
  EXPECT_EQ(c.keep_baton, 6u);  // each rank's last, rank 0's first, 1's bump
  EXPECT_EQ(c.switches, 12u);   // 11 grants + the final return to run()
  EXPECT_EQ(c.ready_pushes, 11u);
  // 8 of them append to the sorted run: the 4 run-start pushes, ranks 1-3
  // re-queued at clocks 1, 2, 3 (a wave) and rank 0 woken at t=10. Rank 1's
  // (3, 1) behind (3, 3) and ranks 2 and 3 woken at t=5 behind (10, 0)
  // order before the run's last entry and go to the heap.
  EXPECT_EQ(c.ready_run_pushes, 8u);
  EXPECT_EQ(c.ready_erases, 11u);
  EXPECT_EQ(c.gate_crossings, 3u);
  EXPECT_EQ(c.reparks, 1u);
  EXPECT_EQ(c.cond_evals, 11u);
  EXPECT_EQ(c.fabric_transfers, 0u);  // the body never touches the fabric
  // Every rank entered the ready queue at run start and left it when it
  // last ran; nothing is queued after a clean run.
  EXPECT_EQ(c.ready_pushes, c.ready_erases);
  // Reset per run, and exactly reproducible.
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(run_counter_workload(eng).ok());
    const EngineCounters& again = eng.counters();
    EXPECT_EQ(again.performs, c.performs);
    EXPECT_EQ(again.keep_baton, c.keep_baton);
    EXPECT_EQ(again.switches, c.switches);
    EXPECT_EQ(again.ready_pushes, c.ready_pushes);
    EXPECT_EQ(again.ready_run_pushes, c.ready_run_pushes);
    EXPECT_EQ(again.ready_erases, c.ready_erases);
    EXPECT_EQ(again.gate_crossings, c.gate_crossings);
    EXPECT_EQ(again.reparks, c.reparks);
    EXPECT_EQ(again.cond_evals, c.cond_evals);
  }
  // The linear-scan oracle runs the same simulation without the heap-only
  // fast paths: no keep-baton grants and no gates.
  EngineOptions lin_opt;
  lin_opt.scheduler = SchedulerKind::kLinearScan;
  Engine lin(plat(), 4, lin_opt);
  const RunResult lr = run_counter_workload(lin);
  ASSERT_TRUE(lr.ok());
  EXPECT_EQ(lr.rank_end_us, run_counter_workload(eng).rank_end_us);
  EXPECT_EQ(lin.counters().performs, 10u);
  EXPECT_EQ(lin.counters().keep_baton, 0u);
  EXPECT_EQ(lin.counters().gate_crossings, 0u);
  EXPECT_EQ(lin.counters().reparks, 0u);
  EXPECT_EQ(lin.counters().ready_pushes, lin.counters().ready_erases);
  EXPECT_EQ(lin.counters().ready_run_pushes, 0u);  // no sorted run
}

TEST(EngineCounters, FabricTransfersArePerRun) {
  // Each rank moves k messages through the fabric in each of two runs on
  // one engine; the count is per run.
  const int n = 3;
  const int k = 5;
  Engine eng(plat(), n);
  for (int rep = 0; rep < 2; ++rep) {
    const RunResult r = eng.run([&](Rank& rank) {
      for (int i = 0; i < k; ++i) {
        eng.perform(rank, [&] {
          simnet::TransferParams p;
          p.src_ep = rank.endpoint();
          p.dst_ep = rank.endpoint();
          p.src_rank = rank.id();
          p.bytes = 64;
          p.start_us = rank.now();
          rank.advance(eng.fabric().transfer(p).arrival_us - rank.now());
        });
      }
    });
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_EQ(eng.counters().fabric_transfers,
              static_cast<std::uint64_t>(n * k))
        << "rep " << rep;
  }
}

// A wave workload: every rank performs at one virtual time, in rank order,
// for several rounds, with a barrier-style gated wait between rounds and a
// few ranks that fall out of step (extra compute, an extra perform) so both
// the sorted run and the heap fallback carry grants. `record` lists every
// perform as (rank, clock), which is the grant order itself.
RunResult run_wave_workload(Engine& eng, int rounds,
                            std::vector<std::pair<int, double>>* record) {
  const int n = eng.nranks();
  std::uint64_t generation = 0;
  int entered = 0;
  double max_enter = 0.0;
  std::array<double, 4> done{};
  return eng.run([&](Rank& rank) {
    const int id = rank.id();
    for (int round = 0; round < rounds; ++round) {
      const int puts = id % 7 == 3 ? 3 : 4;  // some ranks do less
      for (int i = 0; i < puts; ++i) {
        if (id % 11 == 5) rank.advance(0.25);  // out of step
        eng.perform(rank, [&] { record->emplace_back(id, rank.now()); });
        rank.advance(0.5);
      }
      std::uint64_t my_gen = 0;
      eng.perform(rank, [&] {
        record->emplace_back(id, rank.now());
        my_gen = generation;
        if (entered == 0) max_enter = 0.0;
        ++entered;
        max_enter = std::max(max_enter, rank.now());
        if (entered == n) {
          done[my_gen % done.size()] = max_enter + 1.0;
          entered = 0;
          ++generation;
        }
      });
      eng.wait(
          rank, "test.wave", WaitGate{&generation, my_gen + 1},
          [&]() -> std::optional<double> {
            if (generation <= my_gen) return std::nullopt;
            return done[my_gen % done.size()];
          });
    }
  });
}

TEST(EngineCrossScheduler, WaveGrantOrderMatchesLinearOracle) {
  // The sorted-run ready queue must grant exactly what the linear scan
  // grants, in the same order, run after run on one engine.
  const int n = 97;
  EngineOptions heap_opt;
  heap_opt.scheduler = SchedulerKind::kIndexedHeap;
  Engine heap_eng(plat(), n, heap_opt);
  EngineOptions lin_opt;
  lin_opt.scheduler = SchedulerKind::kLinearScan;
  Engine lin(plat(), n, lin_opt);
  std::vector<std::pair<int, double>> oracle;
  ASSERT_TRUE(run_wave_workload(lin, 6, &oracle).ok());
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<std::pair<int, double>> got;
    const RunResult r = run_wave_workload(heap_eng, 6, &got);
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], oracle[i]) << "grant " << i << " rep " << rep;
    }
    // Both queue paths carried grants.
    const EngineCounters c = heap_eng.counters();
    EXPECT_GT(c.ready_run_pushes, c.ready_pushes / 2);
    EXPECT_LT(c.ready_run_pushes, c.ready_pushes);
  }
}

TEST(EngineCrossScheduler, AbortMidWaveUnwindsEveryRank) {
  // An abort in the middle of a wave unwinds ranks in id order, erasing
  // queued ranks that are not the top (tombstones on the sorted run). The
  // same engine then runs a clean wave identical to the oracle.
  const int n = 40;
  for (const SchedulerKind sched :
       {SchedulerKind::kIndexedHeap, SchedulerKind::kLinearScan}) {
    EngineOptions opt;
    opt.scheduler = sched;
    Engine eng(plat(), n, opt);
    int performed = 0;
    const RunResult aborted = eng.run([&](Rank& rank) {
      for (int i = 0; i < 3; ++i) {
        eng.perform(rank, [&] {
          if (++performed == n + n / 2) {
            eng.abort_run(rank, ErrorCode::kFailedPrecondition, "mid-wave");
          }
        });
        rank.advance(1.0);
      }
    });
    EXPECT_EQ(aborted.status.code(), ErrorCode::kFailedPrecondition);
    EXPECT_EQ(performed, n + n / 2);
    std::vector<std::pair<int, double>> got;
    ASSERT_TRUE(run_wave_workload(eng, 2, &got).ok());
    std::vector<std::pair<int, double>> want;
    EngineOptions lin_opt;
    lin_opt.scheduler = SchedulerKind::kLinearScan;
    Engine lin(plat(), n, lin_opt);
    ASSERT_TRUE(run_wave_workload(lin, 2, &want).ok());
    EXPECT_EQ(got, want) << to_string(sched);
  }
}

TEST(EngineSchedulerDefaults, ProcessWideDefaultIsHonored) {
  const SchedulerKind saved = default_scheduler();
  set_default_scheduler(SchedulerKind::kLinearScan);
  EXPECT_EQ(EngineOptions{}.scheduler, SchedulerKind::kLinearScan);
  EXPECT_STREQ(to_string(SchedulerKind::kLinearScan), "linear");
  set_default_scheduler(saved);
  EXPECT_EQ(EngineOptions{}.scheduler, saved);
  EXPECT_STREQ(to_string(SchedulerKind::kIndexedHeap), "heap");
}

TEST(EngineWatchdogDefaults, ProcessWideDefaultIsHonored) {
  const double saved_wd = default_watchdog_virtual_us();
  set_default_watchdog_virtual_us(123.0);
  EXPECT_DOUBLE_EQ(EngineOptions{}.watchdog_virtual_us, 123.0);
  set_default_watchdog_virtual_us(saved_wd);
}

// ---------------------------------------------------------------------------
// Metrics (DESIGN.md §9)
// ---------------------------------------------------------------------------

TEST(Engine, MetricsDisabledByDefaultAndReportEmpty) {
  Engine eng(plat(), 2);
  EXPECT_FALSE(eng.metrics().enabled());
  const RunResult r = eng.run([](Rank& rank) { rank.advance(1.0); });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const MetricsReport rep = eng.metrics_report();
  EXPECT_TRUE(rep.ranks.empty());
  EXPECT_TRUE(rep.links.empty());
  EXPECT_TRUE(rep.stack_hwm_bytes.empty());
}

TEST(Engine, MetricsCountWaitsAndBlockedTime) {
  EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 2, o);
  std::uint64_t flag = 0;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(7.0);
      eng.perform(rank, [&] { ++flag; });
    } else {
      eng.wait(rank, "flag", WaitGate{&flag, 1},
               [&]() -> std::optional<double> {
                 return flag != 0 ? std::optional<double>(7.0) : std::nullopt;
               });
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const MetricsReport rep = eng.metrics_report();
  ASSERT_EQ(rep.ranks.size(), 2u);
  EXPECT_EQ(rep.ranks[1].ops.waits, 1u);
  // Rank 1 entered the wait at t=0 and woke at t=7.
  EXPECT_DOUBLE_EQ(rep.ranks[1].blocked_us, 7.0);
  EXPECT_EQ(rep.ranks[1].wait_us.total(), 1u);
  EXPECT_EQ(rep.ranks[0].ops.waits, 0u);
  EXPECT_DOUBLE_EQ(rep.makespan_us, 7.0);
}

TEST(Engine, MetricsResetBetweenRuns) {
  EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 2, o);
  std::uint64_t flag = 0;
  auto body = [&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(2.0);
      eng.perform(rank, [&] { ++flag; });
    } else {
      eng.wait(rank, "flag", WaitGate{&flag, 1},
               [&]() -> std::optional<double> {
                 return flag != 0 ? std::optional<double>(2.0) : std::nullopt;
               });
    }
  };
  ASSERT_TRUE(eng.run(body).ok());
  const RankMetrics first = eng.metrics_report().totals();
  EXPECT_EQ(first.ops.waits, 1u);
  flag = 0;
  ASSERT_TRUE(eng.run(body).ok());
  // Counters re-zero each run: the second report equals the first instead of
  // doubling.
  const RankMetrics second = eng.metrics_report().totals();
  EXPECT_EQ(second.ops.waits, first.ops.waits);
  EXPECT_EQ(second.blocked_us, first.blocked_us);
}

TEST(EngineMetrics, FiberStackHighWaterMarksAreMeasured) {
  EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 4, o);
  ASSERT_TRUE(eng.run([](Rank& rank) {
    // Burn some stack so the high-water-mark is visibly above zero.
    volatile char sink[2048];
    for (std::size_t i = 0; i < sizeof(sink); ++i) sink[i] = 'x';
    rank.advance(static_cast<double>(sink[0]));
  }).ok());
  const MetricsReport rep = eng.metrics_report();
  ASSERT_EQ(rep.stack_hwm_bytes.size(), 4u);
  EXPECT_GT(rep.stack_usable_bytes, 0u);
  for (std::size_t hwm : rep.stack_hwm_bytes) {
    EXPECT_GT(hwm, 2048u);
    EXPECT_LE(hwm, rep.stack_usable_bytes);
  }
  // The stack section exports through stack_csv_rows, not csv_rows — the
  // latter must stay build-independent.
  EXPECT_FALSE(rep.stack_csv_rows().empty());
  for (const auto& row : rep.csv_rows()) EXPECT_NE(row[0], "stack");
}

TEST(EngineMetrics, ProcessWideDefaultIsHonored) {
  ASSERT_FALSE(default_metrics()) << "tests assume metrics default off";
  set_default_metrics(true);
  EXPECT_TRUE(EngineOptions{}.metrics);
  set_default_metrics(false);
  EXPECT_FALSE(EngineOptions{}.metrics);
}

// ---------------------------------------------------------------------------
// StackPool — pooled fiber stacks (DESIGN.md §12)
// ---------------------------------------------------------------------------

namespace {

// Deliberately odd slot size so these tests get their own pool size class,
// undisturbed by other tests (and the pool default) using standard sizes.
constexpr std::size_t kOddStackBytes = 9 * 4096;

__attribute__((noinline)) std::size_t burn_stack(int depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  pad[sizeof(pad) - 1] = 1;
  if (depth <= 0) return static_cast<std::size_t>(pad[0]);
  return burn_stack(depth - 1) + static_cast<std::size_t>(pad[sizeof(pad) - 1]);
}

}  // namespace

TEST(EngineStackPool, SlotsAreRecycledAcrossEngineLifetimes) {
  EngineOptions o;
  o.fiber_stack_bytes = kOddStackBytes;
  const StackPoolStats before = stack_pool_stats();
  {
    Engine eng(plat(), 8, o);
    ASSERT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
  }  // ~Engine releases every slot back to the freelist
  const StackPoolStats mid = stack_pool_stats();
  EXPECT_GT(mid.total_slots, before.total_slots);  // first engine carved
  EXPECT_GE(mid.free_slots, before.free_slots + 8);
  {
    Engine eng(plat(), 8, o);
    ASSERT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
    // The second engine reuses the released slots: nothing new is carved.
    EXPECT_EQ(stack_pool_stats().total_slots, mid.total_slots);
    EXPECT_EQ(stack_pool_stats().free_slots, mid.free_slots - 8);
  }
  EXPECT_EQ(stack_pool_stats().free_slots, mid.free_slots);
}

TEST(EngineStackPool, ReusedSlotsRepoisonSoHwmIsPerTenant) {
  // Engine A burns deep frames, dies, and its slots go back to the pool
  // dirty. Engine B reuses them with a shallow body: poison_stack() must
  // overwrite A's scribbles or B's high-water marks report A's depth.
  EngineOptions o;
  o.fiber_stack_bytes = kOddStackBytes;
  o.metrics = true;
  auto peak_hwm = [](const Engine& eng) {
    std::size_t peak = 0;
    for (std::size_t h : eng.metrics_report().stack_hwm_bytes) {
      peak = std::max(peak, h);
    }
    return peak;
  };
  std::size_t deep = 0;
  {
    Engine eng(plat(), 4, o);
    ASSERT_TRUE(eng.run([](Rank& rank) {
      rank.advance(static_cast<double>(burn_stack(16)) * 0 + 1.0);
    }).ok());
    deep = peak_hwm(eng);
    EXPECT_GE(deep, 16u * 1024u);  // 16 frames x 1 KiB pad each
    EXPECT_LE(deep, kOddStackBytes);
  }
  {
    Engine eng(plat(), 4, o);
    ASSERT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
    const std::size_t shallow = peak_hwm(eng);
    EXPECT_GT(shallow, 0u);
    EXPECT_LT(shallow, deep / 2);
  }
}

}  // namespace
}  // namespace mrl::runtime
