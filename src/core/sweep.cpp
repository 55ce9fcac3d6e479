#include "core/sweep.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "core/fit.hpp"
#include "core/parallel.hpp"
#include "mpi/comm.hpp"
#include "runtime/engine.hpp"
#include "mpi/win.hpp"
#include "shmem/shmem.hpp"
#include "util/status.hpp"
#include "util/units.hpp"
#include "util/zero_bytes.hpp"

namespace mrl::core {

std::string to_string(SweepKind k) {
  switch (k) {
    case SweepKind::kTwoSided: return "two-sided MPI";
    case SweepKind::kOneSidedMpi: return "one-sided MPI";
    case SweepKind::kShmemPutSignal: return "SHMEM put-with-signal";
    case SweepKind::kAtomicCas: return "atomic CAS";
  }
  return "unknown";
}

SweepConfig SweepConfig::defaults(SweepKind kind) {
  SweepConfig cfg;
  cfg.kind = kind;
  for (std::uint64_t b = 8; b <= (4u << 20); b *= 4) cfg.msg_sizes.push_back(b);
  for (std::uint64_t m = 1; m <= 10000; m *= 10) cfg.msgs_per_sync.push_back(m);
  return cfg;
}

namespace {

/// One grid point: returns sender-side elapsed virtual microseconds.
/// Point runners borrow a caller-owned engine — workers reuse one engine
/// (and its per-rank state) across all the grid points they draw.
constexpr std::uint64_t kSlots = 8;  // buffer slots reused modulo the window

Result<double> run_two_sided_point(runtime::Engine& eng, const SweepConfig& cfg,
                           std::uint64_t bytes, std::uint64_t m, int iters) {
  const std::uint64_t slots = std::min(m, kSlots);
  double elapsed = 0;
  const auto res = mpi::World::run(eng, [&](mpi::Comm& c) {
    c.world().capture_payloads = false;  // timing-only transfers
    // Sized by role: ranks that neither send nor receive hold no buffer.
    const bool talks = c.rank() == cfg.sender || c.rank() == cfg.receiver;
    util::ZeroBytes buf(talks ? bytes * slots : 0);
    std::byte ack{};
    c.barrier();
    const double t0 = c.now();
    if (c.rank() == cfg.sender) {
      for (int it = 0; it < iters; ++it) {
        std::vector<mpi::Request> reqs;
        reqs.reserve(m);
        for (std::uint64_t j = 0; j < m; ++j) {
          reqs.push_back(c.isend(buf.data() + (j % slots) * bytes, bytes,
                                 cfg.receiver, 0));
        }
        c.waitall(reqs);
        c.recv(&ack, 1, cfg.receiver, 1);  // window ack = the synchronization
      }
      elapsed = c.now() - t0;
    } else if (c.rank() == cfg.receiver) {
      for (int it = 0; it < iters; ++it) {
        std::vector<mpi::Request> reqs;
        reqs.reserve(m);
        for (std::uint64_t j = 0; j < m; ++j) {
          reqs.push_back(c.irecv(buf.data() + (j % slots) * bytes, bytes,
                                 cfg.sender, 0));
        }
        c.waitall(reqs);
        c.send(&ack, 1, cfg.sender, 1);
      }
    }
    c.barrier();
  });
  if (!res.ok()) return res.status;
  return elapsed;
}

Result<double> run_one_sided_point(runtime::Engine& eng, const SweepConfig& cfg,
                           std::uint64_t bytes, std::uint64_t m, int iters) {
  const std::uint64_t slots = std::min(m, kSlots);
  double elapsed = 0;
  const auto res = mpi::World::run(eng, [&](mpi::Comm& c) {
    c.world().capture_payloads = false;  // timing-only transfers
    // Sized by role: the sender needs only an origin buffer, the receiver
    // only an exposure; every other rank exposes an empty window.
    util::ZeroBytes exposure(c.rank() == cfg.receiver ? bytes * slots : 0);
    util::ZeroBytes origin(c.rank() == cfg.sender ? bytes * slots : 0);
    mpi::WinHandle win = c.create_win(exposure.data(), exposure.size());
    c.barrier();
    const double t0 = c.now();
    if (c.rank() == cfg.sender) {
      for (int it = 0; it < iters; ++it) {
        for (std::uint64_t j = 0; j < m; ++j) {
          win.put(origin.data() + (j % slots) * bytes, bytes, cfg.receiver,
                  (j % slots) * bytes);
        }
        win.flush(cfg.receiver);  // remote completion = the synchronization
      }
      elapsed = c.now() - t0;
    }
    c.barrier();
  });
  if (!res.ok()) return res.status;
  return elapsed;
}

Result<double> run_shmem_point(runtime::Engine& eng, const SweepConfig& cfg,
                       std::uint64_t bytes, std::uint64_t m, int iters) {
  const std::uint64_t slots = std::min(m, kSlots);
  double elapsed = 0;
  shmem::World::Options opt;
  opt.heap_bytes =
      std::max<std::uint64_t>(bytes * slots + (slots + 1) * 8, 1u << 20);
  opt.capture_payloads = false;  // timing-only transfers
  const auto res = shmem::World::run(
      eng,
      [&](shmem::Ctx& s) {
        auto data = s.allocate<std::byte>(bytes * slots);
        auto sig = s.allocate<std::uint64_t>(slots);
        util::ZeroBytes origin(s.pe() == cfg.sender ? bytes : 0);
        s.barrier_all();
        const double t0 = s.now();
        if (s.pe() == cfg.sender) {
          for (int it = 0; it < iters; ++it) {
            for (std::uint64_t j = 0; j < m; ++j) {
              s.put_signal_nbi(data.at((j % slots) * bytes), origin.data(),
                               bytes, sig.at(j % slots), 1, cfg.receiver);
            }
            s.quiet();  // remote completion = the synchronization
          }
          elapsed = s.now() - t0;
        }
        s.barrier_all();
      },
      opt);
  if (!res.ok()) return res.status;
  return elapsed;
}

Result<double> run_cas_point(runtime::Engine& eng, const SweepConfig& cfg,
                     std::uint64_t /*bytes*/, std::uint64_t m, int iters) {
  const std::uint64_t slots = std::min(m, kSlots);
  double elapsed = 0;
  const auto res = shmem::World::run(eng, [&](shmem::Ctx& s) {
    auto word = s.allocate<std::uint64_t>(slots);
    std::uint64_t next[kSlots] = {};  // each slot's value, so every CAS wins
    s.barrier_all();
    const double t0 = s.now();
    if (s.pe() == cfg.sender) {
      for (int it = 0; it < iters; ++it) {
        for (std::uint64_t j = 0; j < m; ++j) {
          std::uint64_t& k = next[j % slots];
          s.atomic_compare_swap(word.at(j % slots), k, k + 1, cfg.receiver);
          ++k;
        }
      }
      elapsed = s.now() - t0;
    }
    s.barrier_all();
  });
  if (!res.ok()) return res.status;
  return elapsed;
}

}  // namespace

Result<std::vector<SweepPoint>> run_sweep(const simnet::Platform& platform,
                                          const SweepConfig& cfg) {
  MRL_CHECK(cfg.iters >= 1 && cfg.nranks >= 2);
  MRL_CHECK(cfg.sender != cfg.receiver);

  // Flatten the grid so every point has a pre-assigned output slot: the
  // result vector layout is fixed up front, making the output independent
  // of the order grid points happen to finish in.
  struct Cell {
    std::uint64_t bytes = 0;
    std::uint64_t m = 0;
    int iters = 0;
  };
  std::vector<Cell> cells;
  cells.reserve(cfg.msg_sizes.size() * cfg.msgs_per_sync.size());
  for (std::uint64_t bytes : cfg.msg_sizes) {
    for (std::uint64_t m : cfg.msgs_per_sync) {
      // Keep the total op count per grid point bounded: big windows need few
      // repetitions for a stable sustained-bandwidth estimate.
      const int iters = static_cast<int>(std::clamp<std::uint64_t>(
          20000 / std::max<std::uint64_t>(1, m), 2,
          std::max<std::uint64_t>(2, static_cast<std::uint64_t>(cfg.iters))));
      cells.push_back(Cell{bytes, m, iters});
    }
  }

  const int jobs = resolve_jobs(cfg.jobs);
  std::vector<SweepPoint> out(cells.size());
  std::vector<Status> errs(cells.size());
  // One engine per worker, reused across every grid point that worker
  // draws. Each point is a fully isolated simulation (fabric/clock/trace
  // reset per run), so reuse is bit-equivalent to a fresh engine per point.
  std::vector<std::unique_ptr<runtime::Engine>> engines(
      static_cast<std::size_t>(jobs));
  parallel_for_indexed(cells.size(), jobs, [&](int worker, std::size_t i) {
    auto& eng = engines[static_cast<std::size_t>(worker)];
    if (!eng) {
      eng = std::make_unique<runtime::Engine>(platform, cfg.nranks);
    }
    const Cell& cell = cells[i];
    Result<double> elapsed = 0.0;
    switch (cfg.kind) {
      case SweepKind::kTwoSided:
        elapsed = run_two_sided_point(*eng, cfg, cell.bytes, cell.m,
                                      cell.iters);
        break;
      case SweepKind::kOneSidedMpi:
        elapsed = run_one_sided_point(*eng, cfg, cell.bytes, cell.m,
                                      cell.iters);
        break;
      case SweepKind::kShmemPutSignal:
        elapsed = run_shmem_point(*eng, cfg, cell.bytes, cell.m, cell.iters);
        break;
      case SweepKind::kAtomicCas:
        elapsed = run_cas_point(*eng, cfg, cell.bytes, cell.m, cell.iters);
        break;
    }
    if (!elapsed.is_ok()) {
      // Deadlock/watchdog at this grid point (possible under faults): record
      // into the point's pre-assigned slot; the engine stays reusable for
      // the worker's remaining points.
      errs[i] = elapsed.status();
      return;
    }
    const double total_bytes = static_cast<double>(cell.bytes) *
                               static_cast<double>(cell.m) * cell.iters;
    SweepPoint pt;
    pt.bytes = static_cast<double>(cell.bytes);
    pt.msgs_per_sync = static_cast<double>(cell.m);
    pt.measured_gbs = bytes_per_us_to_gbs(total_bytes, elapsed.value());
    pt.eff_latency_us = elapsed.value() / (static_cast<double>(cell.m) *
                                           static_cast<double>(cell.iters));
    out[i] = pt;
  });
  // Deterministic error selection: the first failing point in grid order,
  // regardless of which worker hit it first.
  for (std::size_t i = 0; i < errs.size(); ++i) {
    if (!errs[i].is_ok()) {
      return Status(errs[i].code(),
                    "sweep point " + std::to_string(i) + " (" +
                        std::to_string(cells[i].bytes) + " B x " +
                        std::to_string(cells[i].m) + " msgs/sync): " +
                        errs[i].message());
    }
  }
  return out;
}

Result<double> measure_cas_latency_us(const simnet::Platform& platform,
                                      int nranks, int origin, int target) {
  SweepConfig cfg;
  cfg.kind = SweepKind::kAtomicCas;
  cfg.msg_sizes = {8};
  cfg.msgs_per_sync = {32};
  cfg.iters = 2;  // 32 x 2 = 64 CASes
  cfg.nranks = nranks;
  cfg.sender = origin;
  cfg.receiver = target;
  auto pts = run_sweep(platform, cfg);
  if (!pts.is_ok()) return pts.status();
  return pts.value()[0].eff_latency_us;
}

SplitConfig SplitConfig::defaults() {
  SplitConfig cfg;
  for (std::uint64_t v = 1024; v <= (16ull << 20); v *= 2) {
    cfg.volumes.push_back(v);
  }
  cfg.ways = {1, 2, 4, 8};
  return cfg;
}

Result<std::vector<SplitPoint>> run_split_sweep(
    const simnet::Platform& platform, const SplitConfig& cfg) {
  const std::size_t nways = cfg.ways.size();
  std::vector<SplitPoint> out(cfg.volumes.size() * nways);
  for (std::size_t w = 0; w < nways; ++w) {
    const int ways = cfg.ways[w];
    const auto m = static_cast<std::uint64_t>(std::max(ways, 0));
    SweepConfig sweep;
    sweep.kind = SweepKind::kShmemPutSignal;
    sweep.msgs_per_sync = {m};
    sweep.iters = cfg.iters;
    sweep.nranks = cfg.nranks;
    sweep.sender = cfg.sender;
    sweep.receiver = cfg.receiver;
    for (std::uint64_t volume : cfg.volumes) {
      if (m == 0 || volume < m || volume % m != 0) {
        return Status(ErrorCode::kInvalidArgument,
                      "split volume " + std::to_string(volume) +
                          " B does not divide into " + std::to_string(ways) +
                          " messages");
      }
      sweep.msg_sizes.push_back(volume / m);
    }
    auto pts = run_sweep(platform, sweep);
    if (!pts.is_ok()) return pts.status();
    for (std::size_t v = 0; v < cfg.volumes.size(); ++v) {
      SplitPoint& pt = out[v * nways + w];
      pt.volume_bytes = cfg.volumes[v];
      pt.ways = ways;
      pt.time_us = pts.value()[v].eff_latency_us * ways;
      pt.gbs = pts.value()[v].measured_gbs;
    }
  }
  // Fill speedups relative to the unsplit (ways == 1) time per volume.
  std::map<std::uint64_t, double> base;
  for (const SplitPoint& p : out) {
    if (p.ways == 1) base[p.volume_bytes] = p.time_us;
  }
  for (SplitPoint& p : out) {
    const auto it = base.find(p.volume_bytes);
    if (it != base.end() && p.time_us > 0) {
      p.speedup_vs_1 = it->second / p.time_us;
    }
  }
  return out;
}

Result<RooflineParams> calibrate_roofline(const simnet::Platform& platform,
                                          SweepKind kind, int jobs) {
  SweepConfig cfg = SweepConfig::defaults(kind);
  cfg.iters = 4;
  cfg.jobs = jobs;
  auto pts = run_sweep(platform, cfg);
  if (!pts.is_ok()) return pts.status();
  return fit_roofline(pts.value()).params;
}

}  // namespace mrl::core
