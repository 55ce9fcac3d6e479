// Microbenchmarks (google-benchmark): raw costs of the simulator substrate —
// fabric transfers, topology routing, engine baton handoffs, and full
// communication round trips. These bound how large a virtual experiment the
// harness can execute per wall-clock second.
#include <benchmark/benchmark.h>

#include "mpi/comm.hpp"
#include "runtime/engine.hpp"
#include "shmem/shmem.hpp"
#include "simnet/fabric.hpp"
#include "simnet/platform.hpp"

namespace {

using namespace mrl;

void BM_FabricTransfer(benchmark::State& state) {
  const simnet::Platform plat = simnet::Platform::perlmutter_cpu();
  auto fabric = plat.make_fabric();
  simnet::TransferParams p;
  p.src_ep = plat.endpoint_of_rank(0, 2);
  p.dst_ep = plat.endpoint_of_rank(1, 2);
  p.bytes = static_cast<std::uint64_t>(state.range(0));
  p.sw_latency_us = 2.7;
  p.inj_gap_us = 0.05;
  p.pump_gbs = 32.0;
  double t = 0;
  for (auto _ : state) {
    p.start_us = t;
    const auto r = fabric->transfer(p);
    benchmark::DoNotOptimize(r.arrival_us);
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricTransfer)->Arg(8)->Arg(4096)->Arg(1 << 20);

void BM_TopologyRoute(benchmark::State& state) {
  const simnet::Platform plat = simnet::Platform::summit_gpu();
  const simnet::Topology& topo = plat.topology();
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.route(0, 5).size());
    benchmark::DoNotOptimize(topo.route_latency_us(0, 5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologyRoute);

// One baton handoff per op. The persistent engine is hoisted out of the
// timing loop so the number is pure per-op dispatch cost, not fiber setup.
void BM_EnginePerformHandoff(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const simnet::Platform plat = simnet::Platform::perlmutter_cpu();
  const int ops = 200;
  runtime::Engine eng(plat, nranks);
  for (auto _ : state) {
    const auto r = eng.run([&](runtime::Rank& rank) {
      for (int i = 0; i < ops; ++i) {
        rank.advance(0.1);
        eng.perform(rank, [] {});
      }
    });
    benchmark::DoNotOptimize(r.makespan_us);
  }
  state.SetItemsProcessed(state.iterations() * ops * nranks);
}
BENCHMARK(BM_EnginePerformHandoff)
    ->Arg(2)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_MpiPingPong(benchmark::State& state) {
  const simnet::Platform plat = simnet::Platform::perlmutter_cpu();
  const int rounds = 100;
  for (auto _ : state) {
    runtime::Engine eng(plat, 2);
    const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
      double v = 1.0;
      for (int i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          c.send(&v, sizeof(v), 1, 0);
          c.recv(&v, sizeof(v), 1, 0);
        } else {
          c.recv(&v, sizeof(v), 0, 0);
          c.send(&v, sizeof(v), 0, 0);
        }
      }
    });
    benchmark::DoNotOptimize(r.makespan_us);
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_MpiPingPong)->Unit(benchmark::kMillisecond);

void BM_ShmemPutSignal(benchmark::State& state) {
  const simnet::Platform plat = simnet::Platform::perlmutter_gpu();
  const int puts = 200;
  for (auto _ : state) {
    runtime::Engine eng(plat, 2);
    const auto r = shmem::World::run(eng, [&](shmem::Ctx& s) {
      auto data = s.allocate<double>(16);
      auto sig = s.allocate<std::uint64_t>(1);
      if (s.pe() == 0) {
        double buf[16] = {};
        for (int i = 0; i < puts; ++i) {
          s.put_signal_nbi(data, buf, 16, sig, 1, 1);
        }
        s.quiet();
      }
      s.barrier_all();
    });
    benchmark::DoNotOptimize(r.makespan_us);
  }
  state.SetItemsProcessed(state.iterations() * puts);
}
BENCHMARK(BM_ShmemPutSignal)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
