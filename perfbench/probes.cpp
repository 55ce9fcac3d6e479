// Per-layer probes: each times a loop of calls into one layer's public
// functions at the workload's shape, from outside the program, and reports a
// unit cost. The layer split in run.py multiplies these unit costs by the
// work a pass does.
#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <vector>

#include "common.hpp"
#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "runtime/engine.hpp"
#include "shmem/shmem.hpp"
#include "util/stats.hpp"
#include "workloads/embedding/embedding.hpp"
#include "workloads/stencil/stencil.hpp"

namespace perfbench {
namespace {

namespace sim = mrl::simnet;
using mrl::runtime::Engine;
using mrl::runtime::Rank;

/// Keeps probe results observable so loops are not optimized away.
volatile double g_sink = 0;

/// Calls `fn` at least `min_reps` times and until `min_s` has elapsed (at
/// most `max_reps`); returns the median seconds per call.
double median_time(const std::function<void()>& fn, int min_reps = 3,
                   double min_s = 0.2, int max_reps = 1000) {
  std::vector<double> t;
  const double start = now_s();
  while (static_cast<int>(t.size()) < max_reps &&
         (static_cast<int>(t.size()) < min_reps || now_s() - start < min_s)) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return mrl::median(t);
}

/// Engine::run must succeed for a probe's timing to mean anything.
void require_ok(const mrl::runtime::RunResult& r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "probe %s failed: %s\n", what,
                 r.status.to_string().c_str());
    std::exit(1);
  }
}

double route_ns(const ProbeShape& sh) {
  std::size_t calls = 0;
  const double s = median_time([&] {
    double acc = 0;
    calls = 0;
    for (const Traffic& t : sh.traffic) {
      const sim::Topology& topo = t.platform->topology();
      for (const auto& [a, b] : t.endpoint_pairs) {
        acc += static_cast<double>(topo.route(a, b).size()) +
               topo.route_latency_us(a, b) + topo.route_channel_gbs(a, b);
        ++calls;
      }
    }
    g_sink = acc;
  });
  return s * 1e9 / static_cast<double>(std::max<std::size_t>(calls, 1));
}

double transfer_ns(const ProbeShape& sh) {
  std::size_t calls = 0;
  const double s = median_time([&] {
    calls = 0;
    for (const Traffic& t : sh.traffic) {
      const auto fabric = t.platform->make_fabric();
      const sim::LogGP& lp = t.platform->params(t.runtime);
      sim::TimeUs clock = 0;
      // A back-to-back stream: each message starts when the source may
      // inject again, so start times never decrease (the engine's contract).
      for (const auto& [a, b] : t.endpoint_pairs) {
        for (const std::uint64_t bytes : t.msg_bytes) {
          sim::TransferParams tp;
          tp.src_ep = a;
          tp.dst_ep = b;
          tp.src_rank = a;
          tp.bytes = bytes;
          tp.start_us = clock;
          tp.sw_latency_us = lp.L_us;
          tp.inj_gap_us = lp.g_us;
          tp.per_stream_gbs = lp.per_stream_gbs;
          tp.pump_gbs = t.platform->rank_pump_gbs();
          clock = std::max(clock, fabric->transfer(tp).inject_free_us);
          ++calls;
        }
      }
      g_sink = clock;
    }
  });
  return s * 1e9 / static_cast<double>(std::max<std::size_t>(calls, 1));
}

double perform_ns(const sim::Platform& plat, int nranks) {
  const int k = std::max(4, 200000 / nranks);
  static const std::function<void()> kNoop = [] {};
  Engine eng(plat, nranks);
  const std::function<void(Rank&)> body = [k](Rank& r) {
    for (int i = 0; i < k; ++i) {
      r.engine().perform(r, kNoop);
      // Uneven clock steps keep the ready heap reordering.
      r.advance(1e-3 * ((r.id() * 7 + i) % 13));
    }
  };
  require_ok(eng.run(body), "perform (warm)");  // creates the rank fibers
  const double s = median_time(
      [&] { require_ok(eng.run(body), "perform"); }, 1, 0.2, 5);
  return s * 1e9 / (static_cast<double>(nranks) * k);
}

double barrier_ns_per_rank(const sim::Platform& plat, int nranks) {
  const int b = std::max(2, 200000 / nranks);
  Engine eng(plat, nranks);
  auto run = [&](int barriers) {
    require_ok(mrl::mpi::World::run(eng,
                                    [barriers](mrl::mpi::Comm& c) {
                                      for (int i = 0; i < barriers; ++i) {
                                        c.barrier();
                                      }
                                    }),
               "barrier");
  };
  run(1);  // warm: fibers and world
  const double t0 = median_time([&] { run(0); }, 1, 0.1, 5);
  const double tb = median_time([&] { run(b); }, 1, 0.1, 5);
  return std::max(0.0, tb - t0) * 1e9 / (static_cast<double>(nranks) * b);
}

/// Two-rank windowed send/recv of 16 KiB messages, as the two-sided sweep
/// runs it: ns per message at `m` messages per synchronization. 16 KiB is
/// the smallest sweep size whose cost per message grows with `m`.
double p2p_ns(const sim::Platform& plat, int m, int windows) {
  constexpr std::uint64_t kBytes = 16384;
  Engine eng(plat, 2);
  const auto body = [m, windows](mrl::mpi::Comm& c) {
    c.world().capture_payloads = false;
    std::vector<std::byte> buf(kBytes);
    std::byte ack{};
    for (int w = 0; w < windows; ++w) {
      std::vector<mrl::mpi::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(m));
      for (int j = 0; j < m; ++j) {
        reqs.push_back(c.rank() == 0 ? c.isend(buf.data(), kBytes, 1, 0)
                                     : c.irecv(buf.data(), kBytes, 0, 0));
      }
      c.waitall(reqs);
      if (c.rank() == 0) {
        c.recv(&ack, 1, 1, 1);
      } else {
        c.send(&ack, 1, 0, 1);
      }
    }
  };
  require_ok(mrl::mpi::World::run(eng, body), "p2p (warm)");
  const double s = median_time(
      [&] { require_ok(mrl::mpi::World::run(eng, body), "p2p"); });
  return s * 1e9 / (static_cast<double>(m) * windows);
}

/// Two-rank put + flush windows, as the one-sided sweep runs them.
double put_flush_ns(const sim::Platform& plat) {
  constexpr int kM = 1000, kWindows = 10;
  Engine eng(plat, 2);
  const auto body = [](mrl::mpi::Comm& c) {
    c.world().capture_payloads = false;
    std::byte exposure[64] = {};
    std::byte origin[8] = {};
    mrl::mpi::WinHandle win = c.create_win(exposure, sizeof(exposure));
    if (c.rank() == 0) {
      for (int w = 0; w < kWindows; ++w) {
        for (int j = 0; j < kM; ++j) win.put(origin, 8, 1, (j % 8) * 8);
        win.flush(1);
      }
    }
    c.barrier();
  };
  require_ok(mrl::mpi::World::run(eng, body), "put_flush (warm)");
  const double s = median_time(
      [&] { require_ok(mrl::mpi::World::run(eng, body), "put_flush"); });
  return s * 1e9 / (static_cast<double>(kM) * kWindows);
}

/// Blocking gets at 64 ranks, each from its right neighbour.
double mpi_get_ns(const sim::Platform& plat) {
  constexpr int kGets = 200;
  Engine eng(plat, kEmbedMpiRanks);
  const auto body = [](mrl::mpi::Comm& c) {
    std::vector<float> shard(256, 1.0f);
    std::vector<float> dest(8);
    mrl::mpi::WinHandle win =
        c.create_win(shard.data(), shard.size() * sizeof(float));
    c.barrier();
    const int peer = (c.rank() + 1) % c.size();
    for (int i = 0; i < kGets; ++i) {
      win.get(dest.data(), dest.size() * sizeof(float), peer,
              static_cast<std::uint64_t>(i % 32) * 8 * sizeof(float));
    }
    c.barrier();
  };
  require_ok(mrl::mpi::World::run(eng, body), "mpi get (warm)");
  const double s = median_time(
      [&] { require_ok(mrl::mpi::World::run(eng, body), "mpi get"); });
  return s * 1e9 / (static_cast<double>(kEmbedMpiRanks) * kGets);
}

/// shmem::World::run with an empty body: world construction with default
/// Options (a zero-filled 64 MiB symmetric heap per PE) at 4 PEs.
double shmem_world_build_s(const sim::Platform& gpu) {
  Engine eng(gpu, 4);
  const auto run = [&] {
    require_ok(mrl::shmem::World::run(eng, [](mrl::shmem::Ctx&) {}),
               "shmem world");
  };
  run();  // warm: fibers
  return median_time(run, 3, 0.3, 20);
}

mrl::shmem::World::Options small_heap() {
  mrl::shmem::World::Options opt;
  opt.heap_bytes = 1u << 20;
  opt.capture_payloads = false;
  return opt;
}

double shmem_put_signal_ns(const sim::Platform& gpu) {
  constexpr int kM = 1000, kWindows = 10;
  Engine eng(gpu, 2);
  const auto body = [](mrl::shmem::Ctx& s) {
    auto data = s.allocate<std::byte>(64);
    auto sig = s.allocate<std::uint64_t>(8);
    std::byte origin[8] = {};
    s.barrier_all();
    if (s.pe() == 0) {
      for (int w = 0; w < kWindows; ++w) {
        for (int j = 0; j < kM; ++j) {
          s.put_signal_nbi(data.at((j % 8) * 8), origin, 8, sig.at(j % 8), 1,
                           1);
        }
        s.quiet();
      }
    }
    s.barrier_all();
  };
  require_ok(mrl::shmem::World::run(eng, body, small_heap()),
             "put_signal (warm)");
  const double s = median_time([&] {
    require_ok(mrl::shmem::World::run(eng, body, small_heap()), "put_signal");
  });
  return s * 1e9 / (static_cast<double>(kM) * kWindows);
}

double shmem_get_ns(const sim::Platform& gpu) {
  constexpr int kGets = 10000;
  Engine eng(gpu, 2);
  const auto body = [](mrl::shmem::Ctx& s) {
    auto src = s.allocate<float>(256);
    std::vector<float> dest(8);
    s.barrier_all();
    if (s.pe() == 0) {
      for (int i = 0; i < kGets; ++i) {
        s.get(dest.data(), src.at(static_cast<std::uint64_t>(i % 32) * 8), 8,
              1);
      }
    }
    s.barrier_all();
  };
  require_ok(mrl::shmem::World::run(eng, body, small_heap()), "get (warm)");
  const double s = median_time([&] {
    require_ok(mrl::shmem::World::run(eng, body, small_heap()), "shmem get");
  });
  return s * 1e9 / kGets;
}

/// LocalBlock pack + sweep at the stencil_scale decomposition, over every
/// 97th rank's block.
double stencil_ns_per_cell() {
  namespace st = mrl::workloads::stencil;
  st::Config cfg;
  cfg.n = kStencilN;
  int px = 0, py = 0;
  st::choose_grid(kStencilRanks, &px, &py);
  std::vector<st::LocalBlock> blocks;
  double cells = 0;
  for (int r = 0; r < kStencilRanks; r += 97) {
    blocks.emplace_back(
        cfg, st::make_decomp(kStencilN, kStencilRanks, r, px, py));
    const st::Decomp& d = blocks.back().decomp();
    cells += static_cast<double>(d.w()) * d.h();
  }
  const double s = median_time([&] {
    for (st::LocalBlock& b : blocks) {
      b.pack_edges();
      b.sweep();
    }
  });
  return s * 1e9 / cells;
}

/// build_spans over the embedding_serving batches of one query stream, for
/// every MPI policy. Returns ns per call; `combine_ratio` receives
/// issued spans / naive spans.
double build_spans_ns(double* combine_ratio) {
  namespace emb = mrl::workloads::embedding;
  const emb::Config cfg = embedding_config();
  const emb::ZipfGen zipf(cfg.rows, cfg.zipf_s);
  const std::uint64_t qpr = cfg.queries_per_rank;
  std::vector<std::vector<std::uint64_t>> batches;
  std::vector<std::uint64_t> rows;
  for (std::uint64_t p = 0; p < kEmbedMpiRanks; ++p) {
    for (std::uint64_t q0 = 0; q0 < qpr; q0 += cfg.batch) {
      std::vector<std::uint64_t> batch;
      for (std::uint64_t i = 0; i < cfg.batch; ++i) {
        emb::query_rows(zipf, cfg.seed, p * qpr + q0 + i,
                        cfg.lookups_per_query, rows);
        batch.insert(batch.end(), rows.begin(), rows.end());
      }
      batches.push_back(std::move(batch));
    }
  }
  const emb::ShardPolicy policies[] = {emb::ShardPolicy::kRow,
                                       emb::ShardPolicy::kColumn,
                                       emb::ShardPolicy::kHybrid};
  std::vector<emb::GetSpan> spans;
  double issued = 0, naive = 0;
  const double s = median_time([&] {
    issued = naive = 0;
    for (const emb::ShardPolicy pol : policies) {
      for (const auto& batch : batches) {
        naive += static_cast<double>(emb::build_spans(
            pol, kEmbedMpiRanks, cfg.rows, cfg.dim, batch, true, spans));
        issued += static_cast<double>(spans.size());
      }
    }
  });
  *combine_ratio = issued / naive;
  return s * 1e9 / (static_cast<double>(batches.size()) * std::size(policies));
}

}  // namespace

void run_probes(Workload& w, SpanRecorder& rec,
                std::vector<std::pair<std::string, double>>& out) {
  const ProbeShape sh = w.shape();
  auto probe = [&](const char* name, const std::function<double()>& fn) {
    SpanRecorder::Scope s(&rec, name);
    out.emplace_back(name, fn());
  };
  const sim::Platform gpu = sim::Platform::perlmutter_gpu();

  {
    SpanRecorder::Scope s(&rec, "simnet.platform_build_s");
    double first_mb = -1;
    const double t = median_time([&] {
      const double rss0 = proc_status_mb("VmRSS");
      const auto plats = sh.build_platforms();
      if (first_mb < 0) first_mb = proc_status_mb("VmRSS") - rss0;
      g_sink = static_cast<double>(plats.size());
    }, 3, 0.3, 50);
    out.emplace_back("simnet.platform_build_s", t);
    out.emplace_back("simnet.platform_mb", first_mb);
  }
  probe("simnet.route_ns", [&] { return route_ns(sh); });
  probe("simnet.transfer_ns", [&] { return transfer_ns(sh); });
  probe("runtime.engine_build_s", [&] {
    return median_time([&] { Engine eng(*sh.cpu, sh.nranks); }, 3, 0.3, 50);
  });
  probe("runtime.perform_ns", [&] { return perform_ns(*sh.cpu, sh.nranks); });
  probe("mpi.barrier_ns_per_rank",
        [&] { return barrier_ns_per_rank(*sh.cpu, sh.nranks); });
  probe("mpi.p2p_ns_m1e3", [&] { return p2p_ns(*sh.cpu, 1000, 10); });
  probe("mpi.p2p_ns_m1e4", [&] { return p2p_ns(*sh.cpu, 10000, 1); });
  probe("mpi.put_flush_ns", [&] { return put_flush_ns(*sh.cpu); });
  probe("mpi.get_ns", [&] { return mpi_get_ns(*sh.cpu); });
  probe("shmem.world_build_s", [&] { return shmem_world_build_s(gpu); });
  probe("shmem.put_signal_ns", [&] { return shmem_put_signal_ns(gpu); });
  probe("shmem.get_ns", [&] { return shmem_get_ns(gpu); });
  probe("workloads.stencil.sweep_ns_per_cell", stencil_ns_per_cell);
  double ratio = 0;
  probe("workloads.embedding.build_spans_ns",
        [&] { return build_spans_ns(&ratio); });
  out.emplace_back("workloads.embedding.combine_ratio", ratio);
}

}  // namespace perfbench
