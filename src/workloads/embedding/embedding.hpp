// Distributed embedding-lookup serving — the DLRM-style inference workload
// (PAPERS.md: "Dissecting Embedding Bag Performance in DLRM Inference") on
// the one-sided machinery. The first latency-SLO scenario in the repo: the
// stencil/SpTRSV/hashtable benches measure throughput; this one measures
// queries/sec against p99 per-query latency.
//
// Shape: an (rows × dim) float table sharded across ranks. Each rank is a
// serving thread receiving batches of queries; a query gathers
// `lookups_per_query` rows (Zipf-distributed — real embedding traffic is
// heavily skewed toward a few hot rows) via blocking one-sided gets and
// pools them. Three levers the bench sweeps:
//
//   - Shard policy. kRow (row r lives whole on rank r % P), kColumn (every
//     rank owns a dim-slice of all rows; each lookup touches all P ranks),
//     kHybrid (Pr × Pc grid; each lookup touches Pc ranks).
//   - Software combining. Per batch and per owner, requested row slices are
//     deduplicated and merged into maximal contiguous gets in offset order
//     — the classic answer to the per-message α the roofline model charges
//     small ops. Skew makes combining *more* effective (hot rows repeat
//     within a batch), which is exactly the measurable ablation.
//   - Hot-row replication. Rows [0, hot_rows) — the Zipf head, since row ids
//     are assigned in popularity order — are treated as replicated on every
//     rank and served without network traffic.
//
// Determinism: the query stream is keyed (seed, global query id) exactly
// like simnet/fault keys its draws, so any rank/batch/jobs decomposition
// sees the same rows; all QPS/latency numbers are virtual-time quantities
// and byte-identical across schedulers and --jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/platform.hpp"
#include "simnet/trace.hpp"
#include "util/status.hpp"

namespace mrl::workloads::embedding {

/// How the (rows × dim) table is laid out across ranks.
enum class ShardPolicy : std::uint8_t {
  kRow,     ///< row r → rank r % P, whole dim
  kColumn,  ///< rank p → contiguous dim-slice of every row
  kHybrid,  ///< Pr × Pc grid: row group picks the grid row, dim-slice the col
};

[[nodiscard]] const char* to_string(ShardPolicy p);

struct Config {
  std::uint64_t rows = 1u << 13;           ///< table rows
  std::uint64_t dim = 32;                  ///< floats per row
  std::uint64_t queries_per_rank = 32;     ///< serving load per rank
  std::uint64_t lookups_per_query = 16;    ///< rows gathered per query
  std::uint64_t batch = 8;                 ///< queries per serving batch
  double zipf_s = 0.99;                    ///< skew exponent (0 = uniform)
  ShardPolicy policy = ShardPolicy::kRow;
  bool combine = true;                     ///< software combining on/off
  std::uint64_t hot_rows = 0;              ///< replicated heavy-hitter rows
  std::uint64_t seed = 1234;               ///< query-stream seed
  bool verify = true;                      ///< check gathered payloads
};

struct Result {
  double time_us = 0;       ///< makespan of the timed serving phase
  double qps = 0;           ///< aggregate queries per (virtual) second
  double p50_us = 0;        ///< per-query latency percentiles
  double p95_us = 0;
  double p99_us = 0;
  std::uint64_t queries = 0;
  std::uint64_t gets = 0;         ///< network gets actually issued
  std::uint64_t gets_naive = 0;   ///< row-slice fetches before combining
  std::uint64_t cache_hits = 0;   ///< lookups served by hot-row replicas
  std::uint64_t bytes = 0;        ///< payload bytes fetched over the fabric
  bool verified = false;   ///< the check ran: cfg.verify and an OK run
  bool verify_ok = false;  ///< ... and every fetched float matched
  simnet::TraceSummary msgs;
  Status status;
};

/// Deterministic table contents: table[row][col] == table_value(row, col)
/// everywhere, so gathered payloads are verifiable without a golden copy.
[[nodiscard]] float table_value(std::uint64_t row, std::uint64_t col);

/// Zipf(s) sampler over [0, rows) by inverse CDF. Rank i has weight
/// (i+1)^-s, so row ids are in popularity order: row 0 is the hottest.
class ZipfGen {
 public:
  ZipfGen(std::uint64_t rows, double s);
  /// Inverse CDF at u ∈ [0, 1).
  [[nodiscard]] std::uint64_t sample(double u) const;
  /// P(row <= i) — exposed for the golden-value tests.
  [[nodiscard]] double cdf(std::uint64_t i) const;

 private:
  std::vector<double> cum_;  ///< normalized cumulative weights
};

/// Rows gathered by global query `q`: `lookups` draws from the stream
/// keyed (seed, q) — independent of which rank/batch/jobs slot runs it.
void query_rows(const ZipfGen& zipf, std::uint64_t seed, std::uint64_t q,
                std::uint64_t lookups, std::vector<std::uint64_t>& out);

// --- sharding arithmetic (all offsets/lengths in table elements) ---------

/// Hybrid grid: Pr is the largest divisor of nranks <= sqrt(nranks), as
/// stencil::choose_grid factors it.
struct Grid {
  int pr = 1;
  int pc = 1;
};
[[nodiscard]] Grid hybrid_grid(int nranks);

/// Local table size (elements) rank `pe` owns under `policy`.
[[nodiscard]] std::uint64_t local_elems(ShardPolicy policy, int pe,
                                        int nranks, std::uint64_t rows,
                                        std::uint64_t dim);

/// Inverse layout map: element `e` of rank `pe`'s local table holds
/// table[row][col]. The reference that fill_shard and span_matches, which
/// walk the same map span by span, are tested against.
struct RowCol {
  std::uint64_t row = 0;
  std::uint64_t col = 0;
};
[[nodiscard]] RowCol elem_to_rowcol(ShardPolicy policy, int pe, int nranks,
                                    std::uint64_t rows, std::uint64_t dim,
                                    std::uint64_t elem);

/// One get: `elems` contiguous elements at `elem_off` in `owner`'s table.
struct GetSpan {
  int owner = 0;
  std::uint64_t elem_off = 0;
  std::uint64_t elems = 0;
};

/// Builds the get list covering `batch_rows` under `policy`. With
/// `combine` false: one span per (row, shard slice) in lookup order,
/// duplicates kept — the naive per-row gather. With `combine` true: per
/// owner, the requested row slices deduplicated and merged into maximal
/// contiguous runs, owners ascending and offsets ascending within an owner.
/// Combining sorts the distinct rows once, in `scratch`, and never sorts
/// spans. Returns the naive span count (the combining ablation's
/// denominator); `out` receives the spans to issue.
std::uint64_t build_spans(ShardPolicy policy, int nranks, std::uint64_t rows,
                          std::uint64_t dim,
                          const std::vector<std::uint64_t>& batch_rows,
                          bool combine, std::vector<GetSpan>& out,
                          std::vector<std::uint64_t>& scratch);
/// The same, with scratch storage of its own for one call.
std::uint64_t build_spans(ShardPolicy policy, int nranks, std::uint64_t rows,
                          std::uint64_t dim,
                          const std::vector<std::uint64_t>& batch_rows,
                          bool combine, std::vector<GetSpan>& out);

/// Writes rank `pe`'s local table: its local_elems(...) elements, each
/// table_value of the (row, col) elem_to_rowcol maps it to.
void fill_shard(ShardPolicy policy, int pe, int nranks, std::uint64_t rows,
                std::uint64_t dim, float* shard);

/// True when every one of `span.elems` floats in `got` equals the
/// table_value of the element it was fetched from (exact ==).
[[nodiscard]] bool span_matches(ShardPolicy policy, int nranks,
                                std::uint64_t rows, std::uint64_t dim,
                                const GetSpan& span, const float* got);

Result run_mpi(const simnet::Platform& platform, int nranks,
               const Config& cfg);
Result run_shmem(const simnet::Platform& platform, int nranks,
                 const Config& cfg);

}  // namespace mrl::workloads::embedding
