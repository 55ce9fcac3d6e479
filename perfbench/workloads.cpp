// The three benchmark workloads. Each builds its platforms and inputs from
// the workload seed, runs its timed region through public layer functions
// only, and checks every simulated output against the values recorded in
// expected.inc.
#include <algorithm>
#include <cinttypes>
#include <numeric>
#include <string>

#include "common.hpp"
#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"
#include "workloads/stencil/stencil.hpp"

namespace perfbench {
namespace {

using mrl::simnet::Platform;
namespace sim = mrl::simnet;

struct SweepExpect {
  int kind;  // mrl::core::SweepKind
  std::uint64_t bytes;
  std::uint64_t msgs_per_sync;
  double gbs;
};

struct EmbedExpect {
  std::uint64_t query_seed;
  int config;  // index into kEmbedConfigs
  double p50_us;
  double p99_us;
  double qps;
  std::uint64_t gets;
};

#include "expected.inc"

template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

/// Endpoint pairs (src, dst) for rank pairs (a, b), deduplicated.
std::vector<std::pair<int, int>> endpoint_pairs(
    const Platform& p, int nranks,
    const std::vector<std::pair<int, int>>& rank_pairs) {
  std::vector<std::pair<int, int>> out;
  out.reserve(rank_pairs.size());
  for (const auto& [a, b] : rank_pairs) {
    out.emplace_back(p.endpoint_of_rank(a, nranks),
                     p.endpoint_of_rank(b, nranks));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// stencil_scale: a one-sided halo exchange (4 puts inside a fence pair per
// iteration) on 100,000 ranks, run cold once per process.

constexpr int kStencilNodes = 800;
constexpr int kStencilIters = 2;
// Pooled 16 KiB fiber stacks, as the repo's million-rank run uses (measured
// stack high-water mark ~4.7 KiB). Keeps the metrics observer's whole-stack
// poisoning at 1.6 GB instead of 6.4 GB with 64 KiB stacks.
constexpr std::size_t kStencilStackBytes = 16 * 1024;

class StencilScale final : public Workload {
 public:
  void build(std::uint64_t seed) override {
    mrl::runtime::set_default_fiber_stack_bytes(kStencilStackBytes);
    plat_ = std::make_unique<Platform>(Platform::perlmutter_cpu(kStencilNodes));
    cfg_.n = kStencilN;
    cfg_.iters = kStencilIters;
    cfg_.verify = true;
    cfg_.seed = seed;
  }

  bool repeats() const override { return false; }

  int steps() const override { return 1; }

  void step(int, PassResult& r, SpanRecorder* rec) override {
    ++r.attempted;
    mrl::workloads::stencil::Result res;
    {
      SpanRecorder::Scope s(rec, "stencil.run_one_sided");
      res = mrl::workloads::stencil::run_one_sided(*plat_, kStencilRanks, cfg_);
    }
    r.msgs += res.msgs.num_msgs;
    if (!res.status.is_ok()) {
      r.fail("stencil: " + res.status.to_string());
    } else if (!res.verified || res.max_abs_err != 0) {
      r.fail(fmt("stencil: grid differs from the serial reference (%g)",
                 res.max_abs_err));
    } else if (res.time_us != kStencilMakespanUs ||
               res.msgs.num_msgs != kStencilMsgs) {
      r.fail(fmt("stencil: makespan %.17g us, %.0f msgs differ from recorded",
                 res.time_us, static_cast<double>(res.msgs.num_msgs)));
    }
    const double P = kStencilRanks;
    const double cells = static_cast<double>(kStencilN) * kStencilN;
    r.add_work("mpi.put_flush_ns", static_cast<double>(res.msgs.num_msgs));
    // create_win + 2 barriers + a fence pair per iteration, every rank.
    r.add_work("mpi.barrier_ns_per_rank", P * (3 + 2 * kStencilIters));
    r.add_work("workloads.stencil.sweep_ns_per_cell", cells * kStencilIters);
  }

  void record(std::FILE* out) override {
    const auto res =
        mrl::workloads::stencil::run_one_sided(*plat_, kStencilRanks, cfg_);
    std::fprintf(out,
                 "// stencil_scale: virtual makespan (us) and put count.\n"
                 "constexpr double kStencilMakespanUs = %.17g;\n"
                 "constexpr std::uint64_t kStencilMsgs = %" PRIu64 ";\n",
                 res.time_us, res.msgs.num_msgs);
  }

  ProbeShape shape() const override {
    ProbeShape s;
    s.build_platforms = [] {
      return std::vector<Platform>{Platform::perlmutter_cpu(kStencilNodes)};
    };
    s.cpu = plat_.get();
    s.nranks = kStencilRanks;
    std::vector<std::pair<int, int>> rp;
    int px = 0, py = 0;
    mrl::workloads::stencil::choose_grid(kStencilRanks, &px, &py);
    for (int r = 0; r < kStencilRanks; ++r) {
      const auto d = mrl::workloads::stencil::make_decomp(
          kStencilN, kStencilRanks, r, px, py);
      for (const int nb : {d.west, d.east, d.north, d.south}) {
        if (nb >= 0) rp.emplace_back(r, nb);
      }
    }
    Traffic t;
    t.platform = plat_.get();
    t.runtime = sim::Runtime::kOneSidedMpi;
    t.endpoint_pairs = endpoint_pairs(*plat_, kStencilRanks, rp);
    // Halo edges of a ~1.6 x 1.6-cell block: 1 or 2 doubles.
    t.msg_bytes = {8, 16};
    s.traffic.push_back(std::move(t));
    return s;
  }

 private:
  std::unique_ptr<Platform> plat_;
  mrl::workloads::stencil::Config cfg_;
};

// ---------------------------------------------------------------------------
// roofline_sweep: the two-rank Fig 1/3/4 bandwidth grids, weighted so each
// of the three runtimes takes a comparable share of a pass.

using mrl::core::SweepKind;

struct GridSpec {
  SweepKind kind;
  std::vector<std::uint64_t> sizes;
  int repeats;  ///< copies of the grid per pass (weighting)
};

constexpr std::uint64_t kMsgsPerSync[] = {1, 10, 100, 1000, 10000};
constexpr int kSweepIters = 4;  // the fig benches' default (non --full) grid

// 8 B .. 128 KiB by x4. Larger sizes are left out: each of their points
// zero-fills 16-64 MiB of fresh sweep buffers, so page faults and memory
// bandwidth, which swing +-40% run to run on a shared host, would set the
// pass time instead of the per-op paths this workload is for.
std::vector<std::uint64_t> pow4_sizes() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t b = 8; b <= (128u << 10); b *= 4) v.push_back(b);
  return v;
}

std::vector<GridSpec> sweep_grids() {
  return {
      // Two-sided: three sizes. From 16 KiB up, a two-sided point at 10^4
      // msgs/sync costs ~20x more host time per message than at 10^3, and
      // the 16 KiB point alone takes ~0.4 s, a third of the pass. The
      // one-sided grids cost ~30 ms (MPI) and ~60 ms (SHMEM) each, so they
      // repeat until each kind takes about a third.
      {SweepKind::kTwoSided, {8, 512, 16384}, 1},
      {SweepKind::kOneSidedMpi, pow4_sizes(), 12},
      {SweepKind::kShmemPutSignal, pow4_sizes(), 6},
  };
}

/// run_sweep's per-point window count at kSweepIters (see core/sweep.cpp).
std::uint64_t sweep_point_windows(std::uint64_t m) {
  return std::clamp<std::uint64_t>(20000 / m, 2, kSweepIters);
}

const char* kind_name(SweepKind k) {
  switch (k) {
    case SweepKind::kTwoSided: return "two_sided";
    case SweepKind::kOneSidedMpi: return "one_sided";
    case SweepKind::kShmemPutSignal: return "shmem";
    case SweepKind::kAtomicCas: return "cas";
  }
  return "unknown";
}

class RooflineSweep final : public Workload {
 public:
  void build(std::uint64_t seed) override {
    pcpu_ = std::make_unique<Platform>(Platform::perlmutter_cpu());
    fcpu_ = std::make_unique<Platform>(Platform::frontier_cpu());
    pgpu_ = std::make_unique<Platform>(Platform::perlmutter_gpu());
    points_.clear();
    for (const GridSpec& g : sweep_grids()) {
      for (int rep = 0; rep < g.repeats; ++rep) {
        for (const auto b : g.sizes) {
          for (const auto m : kMsgsPerSync) points_.push_back(Point{g.kind, b, m});
        }
      }
    }
    rng_ = mrl::Xoshiro256(seed);
  }

  bool repeats() const override { return true; }

  int steps() const override { return static_cast<int>(points_.size()); }

  // The first pass runs the grids in order; the seed then draws a new order
  // for each pass. Each point is an isolated simulation, so its bandwidth
  // does not depend on the order; the allocator's high-water mark does, and
  // many orders per process make peak RSS their common maximum.
  void end_pass() override {
    for (std::size_t i = points_.size(); i > 1; --i) {
      std::swap(points_[i - 1], points_[rng_.uniform(i)]);
    }
  }

  void step(int i, PassResult& r, SpanRecorder* rec) override {
    const Point& pt = points_[static_cast<std::size_t>(i)];
    ++r.attempted;
    const auto res = run_point(pt, rec);
    const double msgs =
        static_cast<double>(pt.m * sweep_point_windows(pt.m));
    r.msgs += static_cast<std::uint64_t>(msgs);
    // The p2p probes send 16 KiB messages, so smaller two-sided messages
    // have no unit cost and stay in the split's residual.
    if (pt.kind == SweepKind::kOneSidedMpi) {
      r.add_work("mpi.put_flush_ns", msgs);
    } else if (pt.kind == SweepKind::kShmemPutSignal) {
      r.add_work("shmem.put_signal_ns", msgs);
    } else if (pt.bytes >= 16384) {
      r.add_work(pt.m >= 10000 ? "mpi.p2p_ns_m1e4" : "mpi.p2p_ns_m1e3", msgs);
    }
    if (!res.is_ok()) {
      r.fail(std::string("sweep: ") + res.status().to_string());
      return;
    }
    const double want = expected_gbs(pt);
    if (res.value()[0].measured_gbs != want) {
      r.fail(std::string("sweep ") + kind_name(pt.kind) +
             fmt(": %.17g GB/s, recorded %.17g", res.value()[0].measured_gbs,
                 want));
    }
  }

  void record(std::FILE* out) override {
    std::fprintf(out,
                 "// roofline_sweep: {kind, bytes, msgs/sync, GB/s} per grid "
                 "point.\ninline const std::vector<SweepExpect> "
                 "kSweepExpected = {\n");
    for (const GridSpec& g : sweep_grids()) {
      for (const auto b : g.sizes) {
        for (const auto m : kMsgsPerSync) {
          const auto res = run_point(Point{g.kind, b, m}, nullptr);
          const double gbs = res.is_ok() ? res.value()[0].measured_gbs : -1;
          std::fprintf(out, "    {%d, %" PRIu64 ", %" PRIu64 ", %.17g},\n",
                       static_cast<int>(g.kind), b, m, gbs);
        }
      }
    }
    std::fprintf(out, "};\n");
  }

  ProbeShape shape() const override {
    ProbeShape s;
    s.build_platforms = [] {
      return std::vector<Platform>{Platform::perlmutter_cpu(),
                                   Platform::frontier_cpu(),
                                   Platform::perlmutter_gpu()};
    };
    s.cpu = pcpu_.get();
    s.nranks = 2;
    for (const GridSpec& g : sweep_grids()) {
      Traffic t;
      t.platform = &platform_for(g.kind);
      t.runtime = g.kind == SweepKind::kTwoSided      ? sim::Runtime::kTwoSidedMpi
                  : g.kind == SweepKind::kOneSidedMpi ? sim::Runtime::kOneSidedMpi
                                                      : sim::Runtime::kShmem;
      t.endpoint_pairs = endpoint_pairs(*t.platform, 2, {{0, 1}, {1, 0}});
      t.msg_bytes = g.sizes;
      s.traffic.push_back(std::move(t));
    }
    return s;
  }

 private:
  struct Point {
    SweepKind kind;
    std::uint64_t bytes;
    std::uint64_t m;
  };

  const Platform& platform_for(SweepKind k) const {
    switch (k) {
      case SweepKind::kTwoSided: return *pcpu_;
      case SweepKind::kOneSidedMpi: return *fcpu_;
      default: return *pgpu_;
    }
  }

  mrl::Result<std::vector<mrl::core::SweepPoint>> run_point(
      const Point& pt, SpanRecorder* rec) const {
    mrl::core::SweepConfig cfg;
    cfg.kind = pt.kind;
    cfg.msg_sizes = {pt.bytes};
    cfg.msgs_per_sync = {pt.m};
    cfg.iters = kSweepIters;
    cfg.jobs = 1;
    SpanRecorder::Scope s(rec, std::string("core.run_sweep.") +
                                   kind_name(pt.kind));
    return mrl::core::run_sweep(platform_for(pt.kind), cfg);
  }

  static double expected_gbs(const Point& pt) {
    for (const SweepExpect& e : kSweepExpected) {
      if (e.kind == static_cast<int>(pt.kind) && e.bytes == pt.bytes &&
          e.msgs_per_sync == pt.m) {
        return e.gbs;
      }
    }
    return -1;  // never equals a measured bandwidth
  }

  std::unique_ptr<Platform> pcpu_, fcpu_, pgpu_;
  std::vector<Point> points_;
  mrl::Xoshiro256 rng_;
};

// ---------------------------------------------------------------------------
// embedding_serving: DLRM-style batched gets. MPI on 64 ranks under the
// row, column and hybrid policies, SHMEM on 4 PEs; Zipf 0.99, combining and
// payload verification on.

namespace emb = mrl::workloads::embedding;

constexpr int kEmbedShmemPes = 4;
constexpr std::uint64_t kQuerySeedBase = 0xE3B0C442ULL;
constexpr std::uint64_t kQuerySeedPool = 16;

struct EmbedConfig {
  const char* name;
  bool shmem;
  emb::ShardPolicy policy;
};
// Column sharding last: under the RMA checker its ~3M gets take ~100 s, so
// the checker's observer pass stops before it (checked_steps).
constexpr EmbedConfig kEmbedConfigs[] = {
    {"mpi_row", false, emb::ShardPolicy::kRow},
    {"mpi_hybrid", false, emb::ShardPolicy::kHybrid},
    {"shmem_row", true, emb::ShardPolicy::kRow},
    {"mpi_column", false, emb::ShardPolicy::kColumn},
};

class EmbeddingServing final : public Workload {
 public:
  void build(std::uint64_t seed) override {
    cpu_ = std::make_unique<Platform>(Platform::perlmutter_cpu(1));
    gpu_ = std::make_unique<Platform>(Platform::perlmutter_gpu());
    // The workload seed orders the recorded pool of query-stream seeds;
    // pass k serves stream k of that order.
    order_.resize(kQuerySeedPool);
    std::iota(order_.begin(), order_.end(), 0);
    mrl::Xoshiro256 rng(seed);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.uniform(i)]);
    }
    next_ = 0;
  }

  bool repeats() const override { return true; }

  int steps() const override {
    return static_cast<int>(std::size(kEmbedConfigs));
  }

  void step(int c, PassResult& r, SpanRecorder* rec) override {
    const std::uint64_t qs = kQuerySeedBase + order_[next_];
    ++r.attempted;
    const emb::Result res = run_config(c, qs, rec);
    r.msgs += res.gets;
    r.add_work(kEmbedConfigs[c].shmem ? "shmem.get_ns" : "mpi.get_ns",
               static_cast<double>(res.gets));
    const emb::Config cfg = embedding_config();
    const int P = kEmbedConfigs[c].shmem ? kEmbedShmemPes : kEmbedMpiRanks;
    r.add_work("workloads.embedding.build_spans_ns",
               static_cast<double>(P) *
                   static_cast<double>((cfg.queries_per_rank + cfg.batch - 1) /
                                       cfg.batch));
    r.add_count("gets", static_cast<double>(res.gets));
    r.add_count("gets_naive", static_cast<double>(res.gets_naive));
    check(c, qs, res, r);
  }

  void end_pass() override { next_ = (next_ + 1) % order_.size(); }

  int checked_steps() const override { return 3; }  // all but mpi_column

  void record(std::FILE* out) override {
    std::fprintf(out,
                 "// embedding_serving: {query seed, config, p50 us, p99 us, "
                 "QPS, gets}.\ninline const std::vector<EmbedExpect> "
                 "kEmbedExpected = {\n");
    for (std::uint64_t i = 0; i < kQuerySeedPool; ++i) {
      const std::uint64_t qs = kQuerySeedBase + i;
      for (int c = 0; c < static_cast<int>(std::size(kEmbedConfigs)); ++c) {
        const emb::Result res = run_config(c, qs, nullptr);
        std::fprintf(out,
                     "    {%" PRIu64 "ULL, %d, %.17g, %.17g, %.17g, %" PRIu64
                     "},\n",
                     qs, c, res.p50_us, res.p99_us, res.qps, res.gets);
      }
    }
    std::fprintf(out, "};\n");
  }

  ProbeShape shape() const override {
    ProbeShape s;
    s.build_platforms = [] {
      return std::vector<Platform>{Platform::perlmutter_cpu(1),
                                   Platform::perlmutter_gpu()};
    };
    s.cpu = cpu_.get();
    s.nranks = kEmbedMpiRanks;
    // Every requester reaches every owner under the column policy.
    std::vector<std::pair<int, int>> mpi_pairs, shmem_pairs;
    for (int a = 0; a < kEmbedMpiRanks; ++a) {
      for (int b = 0; b < kEmbedMpiRanks; ++b) mpi_pairs.emplace_back(a, b);
    }
    for (int a = 0; a < kEmbedShmemPes; ++a) {
      for (int b = 0; b < kEmbedShmemPes; ++b) shmem_pairs.emplace_back(a, b);
    }
    const emb::Config cfg = embedding_config();
    // Row slices (dim floats) and the column/hybrid per-owner slices.
    const std::vector<std::uint64_t> bytes = {
        cfg.dim * 4, cfg.dim * 4 / kEmbedMpiRanks,
        cfg.dim * 4 / emb::hybrid_grid(kEmbedMpiRanks).pc};
    Traffic t;
    t.platform = cpu_.get();
    t.runtime = sim::Runtime::kOneSidedMpi;
    t.endpoint_pairs = endpoint_pairs(*cpu_, kEmbedMpiRanks, mpi_pairs);
    t.msg_bytes = bytes;
    s.traffic.push_back(t);
    t.platform = gpu_.get();
    t.runtime = sim::Runtime::kShmem;
    t.endpoint_pairs = endpoint_pairs(*gpu_, kEmbedShmemPes, shmem_pairs);
    t.msg_bytes = {cfg.dim * 4};
    s.traffic.push_back(t);
    return s;
  }

 private:
  emb::Result run_config(int c, std::uint64_t query_seed,
                         SpanRecorder* rec) const {
    emb::Config cfg = embedding_config();
    cfg.policy = kEmbedConfigs[c].policy;
    cfg.seed = query_seed;
    SpanRecorder::Scope s(rec, std::string("embedding.") +
                                   kEmbedConfigs[c].name);
    return kEmbedConfigs[c].shmem ? emb::run_shmem(*gpu_, kEmbedShmemPes, cfg)
                                  : emb::run_mpi(*cpu_, kEmbedMpiRanks, cfg);
  }

  static void check(int c, std::uint64_t qs, const emb::Result& res,
                    PassResult& r) {
    const std::string what =
        std::string("embedding ") + kEmbedConfigs[c].name + " seed " +
        std::to_string(qs);
    if (!res.status.is_ok()) {
      r.fail(what + ": " + res.status.to_string());
      return;
    }
    if (!res.verified || !res.verify_ok) {
      r.fail(what + ": fetched payloads differ from the table");
      return;
    }
    for (const EmbedExpect& e : kEmbedExpected) {
      if (e.query_seed != qs || e.config != c) continue;
      if (e.p50_us != res.p50_us || e.p99_us != res.p99_us ||
          e.qps != res.qps || e.gets != res.gets) {
        r.fail(what + fmt(": p99 %.17g us, QPS %.17g differ from recorded",
                          res.p99_us, res.qps));
      }
      return;
    }
    r.fail(what + ": no recorded values");
  }

  std::unique_ptr<Platform> cpu_, gpu_;
  std::vector<std::uint64_t> order_;
  std::size_t next_ = 0;
};

}  // namespace

emb::Config embedding_config() {
  emb::Config cfg;
  cfg.rows = 1u << 15;
  cfg.dim = 64;
  cfg.queries_per_rank = 32;
  cfg.lookups_per_query = 16;
  cfg.batch = 8;
  cfg.zipf_s = 0.99;
  cfg.combine = true;
  cfg.verify = true;
  return cfg;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "stencil_scale") return std::make_unique<StencilScale>();
  if (name == "roofline_sweep") return std::make_unique<RooflineSweep>();
  if (name == "embedding_serving") return std::make_unique<EmbeddingServing>();
  return nullptr;
}

}  // namespace perfbench
