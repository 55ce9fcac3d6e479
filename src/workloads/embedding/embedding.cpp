// Embedding workload core: deterministic Zipf query stream, sharding
// arithmetic, the software-combining span builder, and the serving loop
// shared by the MPI and SHMEM runners.
#include "workloads/embedding/embedding.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/embedding/server.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl::workloads::embedding {

namespace {

// All three policies are one Pr × Pc grid: kRow is P × 1, kColumn is 1 × P,
// kHybrid the balanced factorization. Row r lives in grid row r % Pr; grid
// column cp owns a contiguous dim-slice; rank = grid_row * Pc + cp.
Grid grid_for(ShardPolicy policy, int nranks) {
  switch (policy) {
    case ShardPolicy::kRow:
      return {nranks, 1};
    case ShardPolicy::kColumn:
      return {1, nranks};
    case ShardPolicy::kHybrid:
      return hybrid_grid(nranks);
  }
  return {nranks, 1};
}

// Columns owned by grid column `cp` (remainder spread over the low columns).
std::uint64_t cols_of(int cp, std::uint64_t dim, int pc) {
  const std::uint64_t base = dim / static_cast<std::uint64_t>(pc);
  const std::uint64_t rem = dim % static_cast<std::uint64_t>(pc);
  return base + (static_cast<std::uint64_t>(cp) < rem ? 1 : 0);
}

std::uint64_t col_base(int cp, std::uint64_t dim, int pc) {
  const std::uint64_t base = dim / static_cast<std::uint64_t>(pc);
  const std::uint64_t rem = dim % static_cast<std::uint64_t>(pc);
  const auto c = static_cast<std::uint64_t>(cp);
  return c * base + std::min(c, rem);
}

// Rows living in grid row `g` (those r < rows with r % pr == g).
std::uint64_t rows_of(int g, std::uint64_t rows, int pr) {
  const auto p = static_cast<std::uint64_t>(pr);
  const auto gg = static_cast<std::uint64_t>(g);
  if (gg >= rows) return 0;
  return (rows - gg + p - 1) / p;
}

// Calls f(i, row, col) for elements [off, off + n) of rank `pe`'s local
// table, i counting from 0, while f returns true; returns false as soon as
// it does not. The inverse of the layout (elem_to_rowcol) walked with one
// division per call: local rows hold `c` consecutive columns, and the next
// local row is the grid row's next table row, `pr` further on.
template <typename F>
bool walk_rowcol(ShardPolicy policy, int pe, int nranks, std::uint64_t rows,
                 std::uint64_t dim, std::uint64_t off, std::uint64_t n,
                 F&& f) {
  if (n == 0) return true;
  const Grid g = grid_for(policy, nranks);
  const int cp = pe % g.pc;
  const std::uint64_t c = cols_of(cp, dim, g.pc);
  MRL_CHECK(c > 0);
  const auto pr = static_cast<std::uint64_t>(g.pr);
  const std::uint64_t c0 = col_base(cp, dim, g.pc);
  const std::uint64_t local = off / c;
  std::uint64_t col = off - local * c;
  std::uint64_t row = local * pr + static_cast<std::uint64_t>(pe / g.pc);
  std::uint64_t i = 0;
  while (true) {
    MRL_CHECK(row < rows);
    const std::uint64_t end = i + std::min(c - col, n - i);
    for (; i < end; ++i, ++col) {
      if (!f(i, row, c0 + col)) return false;
    }
    if (i == n) return true;
    col = 0;
    row += pr;
  }
}

void release_freed_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// Host-side pooling/reduction cost per gathered element (us): charged per
// query over lookups × dim whether the row came from the fabric or a
// replica, so caching changes network time only.
constexpr double kPoolUsPerElem = 5e-4;

}  // namespace

const char* to_string(ShardPolicy p) {
  switch (p) {
    case ShardPolicy::kRow:
      return "row";
    case ShardPolicy::kColumn:
      return "col";
    case ShardPolicy::kHybrid:
      return "hybrid";
  }
  return "?";
}

float table_value(std::uint64_t row, std::uint64_t col) {
  std::uint64_t h = row * 0x9E3779B97F4A7C15ULL + col + 1;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  // 20 mantissa-exact bits: float comparison against the fetched payload is
  // an exact equality check, no tolerance needed.
  return static_cast<float>(h & 0xFFFFF) * (1.0f / 1048576.0f);
}

ZipfGen::ZipfGen(std::uint64_t rows, double s) {
  MRL_CHECK(rows > 0);
  cum_.resize(rows);
  double total = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cum_[i] = total;
  }
  for (double& c : cum_) c /= total;
  cum_.back() = 1.0;  // guard against rounding; sample(u<1) stays in range
}

std::uint64_t ZipfGen::sample(double u) const {
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
  if (it == cum_.end()) return cum_.size() - 1;
  return static_cast<std::uint64_t>(it - cum_.begin());
}

double ZipfGen::cdf(std::uint64_t i) const {
  MRL_CHECK(i < cum_.size());
  return cum_[i];
}

void query_rows(const ZipfGen& zipf, std::uint64_t seed, std::uint64_t q,
                std::uint64_t lookups, std::vector<std::uint64_t>& out) {
  // Keyed (seed, query id) like simnet/fault keys its draws: the stream is
  // independent of which rank, batch or --jobs slot evaluates it.
  Xoshiro256 rng = Xoshiro256::for_stream(seed, q);
  out.clear();
  out.reserve(lookups);
  for (std::uint64_t k = 0; k < lookups; ++k) {
    out.push_back(zipf.sample(rng.uniform01()));
  }
}

Grid hybrid_grid(int nranks) {
  Grid g;
  stencil::choose_grid(nranks, &g.pc, &g.pr);
  return g;
}

std::uint64_t local_elems(ShardPolicy policy, int pe, int nranks,
                          std::uint64_t rows, std::uint64_t dim) {
  const Grid g = grid_for(policy, nranks);
  const int gr = pe / g.pc;
  const int cp = pe % g.pc;
  return rows_of(gr, rows, g.pr) * cols_of(cp, dim, g.pc);
}

RowCol elem_to_rowcol(ShardPolicy policy, int pe, int nranks,
                      std::uint64_t rows, std::uint64_t dim,
                      std::uint64_t elem) {
  const Grid g = grid_for(policy, nranks);
  const int gr = pe / g.pc;
  const int cp = pe % g.pc;
  const std::uint64_t c = cols_of(cp, dim, g.pc);
  MRL_CHECK(c > 0);
  RowCol rc;
  rc.row = (elem / c) * static_cast<std::uint64_t>(g.pr) +
           static_cast<std::uint64_t>(gr);
  rc.col = col_base(cp, dim, g.pc) + elem % c;
  MRL_CHECK(rc.row < rows);
  return rc;
}

std::uint64_t build_spans(ShardPolicy policy, int nranks, std::uint64_t rows,
                          std::uint64_t dim,
                          const std::vector<std::uint64_t>& batch_rows,
                          bool combine, std::vector<GetSpan>& out,
                          std::vector<std::uint64_t>& scratch) {
  const Grid g = grid_for(policy, nranks);
  const auto pr = static_cast<std::uint64_t>(g.pr);
  out.clear();
  std::uint64_t slices = 0;  // dim < Pc leaves some slices empty
  for (int cp = 0; cp < g.pc; ++cp) {
    if (cols_of(cp, dim, g.pc) != 0) ++slices;
  }
  if (!combine) {
    for (const std::uint64_t row : batch_rows) {
      MRL_CHECK(row < rows);
      const auto gr = static_cast<int>(row % pr);
      for (int cp = 0; cp < g.pc; ++cp) {
        const std::uint64_t len = cols_of(cp, dim, g.pc);
        if (len == 0) continue;
        out.push_back(GetSpan{gr * g.pc + cp, (row / pr) * len, len});
      }
    }
    return batch_rows.size() * slices;
  }
  // Software combining. Sorted by (grid row, local row), the distinct rows
  // list every owner's requested local rows in ascending order: a grid
  // row's Pc owners each hold a slice of the same local rows. A run of
  // consecutive local rows is one contiguous get per owner — row-policy
  // rows r and r + P fuse into one larger message, amortizing the
  // per-message α — and a duplicate row is fetched once.
  const std::uint64_t stride = rows_of(0, rows, g.pr);  // most local rows
  scratch.clear();
  for (const std::uint64_t row : batch_rows) {
    MRL_CHECK(row < rows);
    scratch.push_back((row % pr) * stride + row / pr);
  }
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  for (std::size_t i = 0; i < scratch.size();) {
    const std::uint64_t gr = scratch[i] / stride;
    const std::uint64_t base = gr * stride;
    std::size_t end = i;
    while (end < scratch.size() && scratch[end] < base + stride) ++end;
    for (int cp = 0; cp < g.pc; ++cp) {
      const std::uint64_t len = cols_of(cp, dim, g.pc);
      if (len == 0) continue;
      const int owner = static_cast<int>(gr) * g.pc + cp;
      for (std::size_t k = i; k < end;) {
        std::size_t last = k;
        while (last + 1 < end && scratch[last + 1] == scratch[last] + 1) {
          ++last;
        }
        out.push_back(GetSpan{owner, (scratch[k] - base) * len,
                              (last - k + 1) * len});
        k = last + 1;
      }
    }
    i = end;
  }
  return batch_rows.size() * slices;
}

std::uint64_t build_spans(ShardPolicy policy, int nranks, std::uint64_t rows,
                          std::uint64_t dim,
                          const std::vector<std::uint64_t>& batch_rows,
                          bool combine, std::vector<GetSpan>& out) {
  std::vector<std::uint64_t> scratch;
  return build_spans(policy, nranks, rows, dim, batch_rows, combine, out,
                     scratch);
}

void fill_shard(ShardPolicy policy, int pe, int nranks, std::uint64_t rows,
                std::uint64_t dim, float* shard) {
  walk_rowcol(policy, pe, nranks, rows, dim, 0,
              local_elems(policy, pe, nranks, rows, dim),
              [&](std::uint64_t i, std::uint64_t row, std::uint64_t col) {
                shard[i] = table_value(row, col);
                return true;
              });
}

bool span_matches(ShardPolicy policy, int nranks, std::uint64_t rows,
                  std::uint64_t dim, const GetSpan& span, const float* got) {
  return walk_rowcol(
      policy, span.owner, nranks, rows, dim, span.elem_off, span.elems,
      [&](std::uint64_t i, std::uint64_t row, std::uint64_t col) {
        return got[i] == table_value(row, col);
      });
}

Server::Server(runtime::Engine& eng, const Config& cfg)
    : eng_(eng),
      cfg_(cfg),
      nranks_(eng.nranks()),
      zipf_(cfg.rows, cfg.zipf_s),
      latency_(static_cast<std::size_t>(nranks_) * cfg.queries_per_rank, 0.0),
      tally_(static_cast<std::size_t>(nranks_)) {}

void Server::serve(runtime::Rank& r, GetFn get) {
  const int p = r.id();
  Tally& t = tally_[static_cast<std::size_t>(p)];
  const std::uint64_t qpr = cfg_.queries_per_rank;
  std::vector<std::uint64_t> rows_buf;
  std::vector<std::uint64_t> batch_rows;
  std::vector<std::uint64_t> scratch;
  std::vector<GetSpan> spans;
  std::vector<float> staging;
  for (std::uint64_t q0 = 0; q0 < qpr; q0 += cfg_.batch) {
    const std::uint64_t nq = std::min(cfg_.batch, qpr - q0);
    const simnet::TimeUs t_batch = r.now();
    batch_rows.clear();
    for (std::uint64_t i = 0; i < nq; ++i) {
      const std::uint64_t gid = static_cast<std::uint64_t>(p) * qpr + q0 + i;
      query_rows(zipf_, cfg_.seed, gid, cfg_.lookups_per_query, rows_buf);
      for (const std::uint64_t row : rows_buf) {
        if (row < cfg_.hot_rows) {
          ++t.hits;  // replicated heavy hitter: no fabric traffic
          continue;
        }
        batch_rows.push_back(row);
      }
    }
    t.naive += build_spans(cfg_.policy, nranks_, cfg_.rows, cfg_.dim,
                           batch_rows, cfg_.combine, spans, scratch);
    std::uint64_t total = 0;
    for (const GetSpan& s : spans) total += s.elems;
    staging.resize(std::max<std::uint64_t>(total, 1));
    // Single serving thread: gets issue serially (each is a blocking round
    // trip), exactly the small-op pattern the roofline model bills.
    std::uint64_t soff = 0;
    for (const GetSpan& s : spans) {
      get(staging.data() + soff, s);
      soff += s.elems;
    }
    t.gets += spans.size();
    t.bytes += total * sizeof(float);
    r.advance(kPoolUsPerElem * static_cast<double>(nq) *
              static_cast<double>(cfg_.lookups_per_query) *
              static_cast<double>(cfg_.dim) * r.compute_scale());
    const double lat = r.now() - t_batch;
    for (std::uint64_t i = 0; i < nq; ++i) {
      latency_[static_cast<std::size_t>(p) * qpr + q0 + i] = lat;
      eng_.metrics().on_query(p, lat);
    }
    if (cfg_.verify) {
      soff = 0;
      for (const GetSpan& s : spans) {
        if (!span_matches(cfg_.policy, nranks_, cfg_.rows, cfg_.dim, s,
                          staging.data() + soff)) {
          t.bad = true;
        }
        soff += s.elems;
      }
    }
  }
}

Result Server::finish(const runtime::RunResult& run, double time_us) {
  Result out;
  out.status = run.status;
  out.time_us = time_us;
  out.queries = cfg_.queries_per_rank * static_cast<std::uint64_t>(nranks_);
  out.qps = out.time_us > 0
                ? static_cast<double>(out.queries) / (out.time_us * 1e-6)
                : 0;
  if (!latency_.empty() && run.ok()) {
    out.p50_us = percentile(latency_, 50);
    out.p95_us = percentile(latency_, 95);
    out.p99_us = percentile(latency_, 99);
  }
  bool bad = false;
  for (const Tally& t : tally_) {
    out.gets += t.gets;
    out.gets_naive += t.naive;
    out.cache_hits += t.hits;
    out.bytes += t.bytes;
    bad = bad || t.bad;
  }
  out.verified = cfg_.verify && run.ok();
  out.verify_ok = out.verified && !bad;
  out.msgs = eng_.trace().summarize();
  release_freed_heap();
  return out;
}

}  // namespace mrl::workloads::embedding
