// Embedding workload core: deterministic Zipf query stream, sharding
// arithmetic, and the software-combining span builder shared by the MPI and
// SHMEM runners.
#include "workloads/embedding/embedding.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

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
  Grid g{1, nranks};
  for (int d = static_cast<int>(std::sqrt(static_cast<double>(nranks)));
       d >= 1; --d) {
    if (nranks % d == 0) {
      g.pr = d;
      g.pc = nranks / d;
      break;
    }
  }
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
                          bool combine, std::vector<GetSpan>& out) {
  const Grid g = grid_for(policy, nranks);
  out.clear();
  std::uint64_t naive = 0;
  for (const std::uint64_t row : batch_rows) {
    MRL_CHECK(row < rows);
    const int gr = static_cast<int>(row % static_cast<std::uint64_t>(g.pr));
    for (int cp = 0; cp < g.pc; ++cp) {
      const std::uint64_t len = cols_of(cp, dim, g.pc);
      if (len == 0) continue;  // dim < Pc leaves some slices empty
      ++naive;
      GetSpan s;
      s.owner = gr * g.pc + cp;
      s.elem_off = (row / static_cast<std::uint64_t>(g.pr)) * len;
      s.elems = len;
      out.push_back(s);
    }
  }
  if (!combine) return naive;
  // Software combining: sort per (owner, offset) and merge overlapping or
  // adjacent spans into maximal contiguous gets. Duplicate rows collapse as
  // exact overlaps; row-policy rows r and r+P land in adjacent local rows
  // and fuse into one larger message — amortizing the per-message α.
  std::sort(out.begin(), out.end(), [](const GetSpan& a, const GetSpan& b) {
    if (a.owner != b.owner) return a.owner < b.owner;
    if (a.elem_off != b.elem_off) return a.elem_off < b.elem_off;
    return a.elems < b.elems;
  });
  std::size_t w = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (w > 0 && out[w - 1].owner == out[i].owner &&
        out[i].elem_off <= out[w - 1].elem_off + out[w - 1].elems) {
      const std::uint64_t end = out[i].elem_off + out[i].elems;
      const std::uint64_t cur = out[w - 1].elem_off + out[w - 1].elems;
      if (end > cur) out[w - 1].elems = end - out[w - 1].elem_off;
      continue;
    }
    out[w++] = out[i];
  }
  out.resize(w);
  return naive;
}

void release_freed_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace mrl::workloads::embedding
