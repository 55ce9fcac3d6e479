// Embedding-lookup workload: sharding arithmetic, the deterministic Zipf
// query stream (golden values), software combining, end-to-end payload
// verification on both APIs, scheduler bit-identity, and clean
// --check runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/checker.hpp"
#include "runtime/engine.hpp"
#include "simnet/platform.hpp"
#include "util/rng.hpp"
#include "workloads/embedding/embedding.hpp"

namespace mrl::workloads::embedding {
namespace {

// ---------------------------------------------------------------------------
// Sharding arithmetic
// ---------------------------------------------------------------------------

TEST(EmbeddingShard, HybridGridFactorizes) {
  for (int n : {1, 2, 3, 4, 6, 7, 8, 12, 16, 64, 100}) {
    const Grid g = hybrid_grid(n);
    EXPECT_EQ(g.pr * g.pc, n) << n;
    EXPECT_LE(g.pr, g.pc) << n;  // pr = largest divisor <= sqrt(n)
  }
  EXPECT_EQ(hybrid_grid(16).pr, 4);
  EXPECT_EQ(hybrid_grid(16).pc, 4);
  EXPECT_EQ(hybrid_grid(8).pr, 2);
  EXPECT_EQ(hybrid_grid(8).pc, 4);
  EXPECT_EQ(hybrid_grid(7).pr, 1);  // prime degenerates to column-major
  EXPECT_EQ(hybrid_grid(7).pc, 7);
}

// Every (row, col) of the table must live on exactly one rank, at exactly
// one local element — including awkward shapes where rows % P != 0 and
// dim % Pc != 0.
void expect_exact_cover(ShardPolicy policy, int nranks, std::uint64_t rows,
                        std::uint64_t dim) {
  std::vector<int> covered(rows * dim, 0);
  for (int pe = 0; pe < nranks; ++pe) {
    const std::uint64_t elems = local_elems(policy, pe, nranks, rows, dim);
    for (std::uint64_t e = 0; e < elems; ++e) {
      const RowCol rc = elem_to_rowcol(policy, pe, nranks, rows, dim, e);
      ASSERT_LT(rc.row, rows);
      ASSERT_LT(rc.col, dim);
      ++covered[rc.row * dim + rc.col];
    }
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    ASSERT_EQ(covered[i], 1) << to_string(policy) << " elem " << i;
  }
}

TEST(EmbeddingShard, AllPoliciesCoverTheTableExactlyOnce) {
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    expect_exact_cover(p, 5, 37, 13);  // nothing divides anything
    expect_exact_cover(p, 4, 64, 8);   // everything divides everything
    expect_exact_cover(p, 6, 10, 4);   // fewer columns than grid columns
  }
}

TEST(EmbeddingShard, FillShardMatchesElemToRowCol) {
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    for (const auto& [nranks, rows, dim] :
         {std::tuple<int, std::uint64_t, std::uint64_t>{5, 37, 13},
          {4, 64, 8},
          {6, 10, 4}}) {
      for (int pe = 0; pe < nranks; ++pe) {
        const std::uint64_t elems = local_elems(p, pe, nranks, rows, dim);
        std::vector<float> shard(elems + 1, -1.0f);
        fill_shard(p, pe, nranks, rows, dim, shard.data());
        for (std::uint64_t e = 0; e < elems; ++e) {
          const RowCol rc = elem_to_rowcol(p, pe, nranks, rows, dim, e);
          ASSERT_EQ(shard[e], table_value(rc.row, rc.col))
              << to_string(p) << " P=" << nranks << " pe " << pe << " elem "
              << e;
        }
        EXPECT_EQ(shard[elems], -1.0f) << "wrote past the shard";
      }
    }
  }
}

TEST(EmbeddingShard, LocalElemsSumToTable) {
  const std::uint64_t rows = 37, dim = 13;
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    std::uint64_t total = 0;
    for (int pe = 0; pe < 5; ++pe) total += local_elems(p, pe, 5, rows, dim);
    EXPECT_EQ(total, rows * dim) << to_string(p);
  }
}

TEST(EmbeddingShard, TableValueIsMantissaExact) {
  // 20-bit payloads round-trip float storage exactly — the runners compare
  // fetched bytes with == and no tolerance.
  for (std::uint64_t r : {0ull, 1ull, 12345ull}) {
    for (std::uint64_t c : {0ull, 7ull, 63ull}) {
      const float v = table_value(r, c);
      EXPECT_GE(v, 0.0f);
      EXPECT_LT(v, 1.0f);
      EXPECT_EQ(v, table_value(r, c));
    }
  }
  EXPECT_NE(table_value(3, 4), table_value(4, 3));
}

// ---------------------------------------------------------------------------
// Zipf query stream
// ---------------------------------------------------------------------------

TEST(EmbeddingZipf, GoldenValues) {
  // Pinned against the initial implementation: any change to the CDF or the
  // (seed, query) keying silently reshuffles every bench number, so it must
  // show up here first.
  const ZipfGen z(1024, 0.99);
  EXPECT_DOUBLE_EQ(z.cdf(0), 0.12895976572899961);
  EXPECT_DOUBLE_EQ(z.cdf(9), 0.38121893279891139);
  EXPECT_DOUBLE_EQ(z.cdf(1023), 1.0);
  EXPECT_EQ(z.sample(0.0), 0u);
  EXPECT_EQ(z.sample(0.25), 3u);
  EXPECT_EQ(z.sample(0.5), 25u);
  EXPECT_EQ(z.sample(0.9), 495u);
  EXPECT_EQ(z.sample(0.9999), 1023u);

  std::vector<std::uint64_t> rows;
  query_rows(z, 1234, 0, 6, rows);
  EXPECT_EQ(rows, (std::vector<std::uint64_t>{4, 0, 41, 70, 10, 4}));
  query_rows(z, 1234, 7, 6, rows);
  EXPECT_EQ(rows, (std::vector<std::uint64_t>{4, 1, 298, 48, 778, 501}));
}

TEST(EmbeddingZipf, ZeroSkewIsUniform) {
  const ZipfGen z(8, 0.0);
  EXPECT_DOUBLE_EQ(z.cdf(3), 0.5);
  EXPECT_EQ(z.sample(0.374), 2u);
}

TEST(EmbeddingZipf, CdfIsMonotoneAndSamplingInverts) {
  const ZipfGen z(100, 1.2);
  for (std::uint64_t i = 1; i < 100; ++i) {
    EXPECT_GT(z.cdf(i), z.cdf(i - 1));
  }
  // sample(u) returns the first index whose CDF exceeds u.
  for (std::uint64_t i = 0; i < 100; i += 7) {
    EXPECT_EQ(z.sample(z.cdf(i)), i == 99 ? 99 : i + 1);
  }
}

TEST(EmbeddingZipf, StreamIsKeyedByQueryId) {
  const ZipfGen z(256, 0.9);
  std::vector<std::uint64_t> a, b;
  query_rows(z, 42, 5, 8, a);
  query_rows(z, 42, 5, 8, b);
  EXPECT_EQ(a, b);  // same key, same draws — regardless of caller order
  query_rows(z, 42, 6, 8, b);
  EXPECT_NE(a, b);
  query_rows(z, 43, 5, 8, b);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Software combining
// ---------------------------------------------------------------------------

TEST(EmbeddingSpans, RowPolicyFusesAdjacentLocalRows) {
  // P=4 row sharding: rows 2 and 6 are local rows 0 and 1 of rank 2 —
  // adjacent, so combining fuses them into one get of 2*dim elements.
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kRow, 4, 64, 8, {2, 6}, true, spans);
  EXPECT_EQ(naive, 2u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].owner, 2);
  EXPECT_EQ(spans[0].elem_off, 0u);
  EXPECT_EQ(spans[0].elems, 16u);
}

TEST(EmbeddingSpans, DuplicateRowsCollapse) {
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kRow, 4, 64, 8, {5, 5, 5}, true, spans);
  EXPECT_EQ(naive, 3u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].owner, 1);
  EXPECT_EQ(spans[0].elems, 8u);
}

TEST(EmbeddingSpans, CombineOffPreservesNaiveCount) {
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kRow, 4, 64, 8, {2, 6, 5, 5}, false, spans);
  EXPECT_EQ(naive, 4u);
  EXPECT_EQ(spans.size(), 4u);
}

TEST(EmbeddingSpans, ColumnPolicySplitsAcrossOwners) {
  // One row under column sharding fans out to every rank owning a non-empty
  // dim slice; distinct rows on the same owner do NOT merge (their local
  // offsets are dim/pc apart).
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kColumn, 4, 64, 8, {3}, true, spans);
  EXPECT_EQ(naive, 4u);
  ASSERT_EQ(spans.size(), 4u);
  for (int cp = 0; cp < 4; ++cp) {
    EXPECT_EQ(spans[cp].owner, cp);
    EXPECT_EQ(spans[cp].elem_off, 3u * 2u);
    EXPECT_EQ(spans[cp].elems, 2u);
  }
}

TEST(EmbeddingSpans, TotalElementsMatchRequestedRows) {
  // Combining changes message count, never byte count (dups aside).
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    std::vector<GetSpan> spans;
    build_spans(p, 6, 100, 10, {0, 7, 13, 99, 42}, true, spans);
    std::uint64_t total = 0;
    for (const GetSpan& s : spans) total += s.elems;
    EXPECT_EQ(total, 5u * 10u) << to_string(p);
  }
}

// Every row's slice on every owner, read back through elem_to_rowcol.
std::vector<std::vector<GetSpan>> row_slices(ShardPolicy policy, int nranks,
                                             std::uint64_t rows,
                                             std::uint64_t dim) {
  std::vector<std::vector<GetSpan>> slices(rows);
  for (int pe = 0; pe < nranks; ++pe) {
    const std::uint64_t elems = local_elems(policy, pe, nranks, rows, dim);
    for (std::uint64_t e = 0; e < elems; ++e) {
      std::vector<GetSpan>& row =
          slices[elem_to_rowcol(policy, pe, nranks, rows, dim, e).row];
      if (row.empty() || row.back().owner != pe) {
        row.push_back(GetSpan{pe, e, 0});
      }
      ++row.back().elems;
    }
  }
  return slices;
}

// The span list as a sort-and-merge over the naive per-row spans: what
// build_spans must equal element for element.
std::vector<GetSpan> oracle_spans(
    const std::vector<std::vector<GetSpan>>& slices,
    const std::vector<std::uint64_t>& batch, bool combine) {
  std::vector<GetSpan> out;
  for (const std::uint64_t row : batch) {
    out.insert(out.end(), slices[row].begin(), slices[row].end());
  }
  if (!combine) return out;
  std::sort(out.begin(), out.end(), [](const GetSpan& a, const GetSpan& b) {
    if (a.owner != b.owner) return a.owner < b.owner;
    return a.elem_off < b.elem_off;
  });
  std::vector<GetSpan> merged;
  for (const GetSpan& s : out) {
    if (!merged.empty() && merged.back().owner == s.owner &&
        s.elem_off <= merged.back().elem_off + merged.back().elems) {
      GetSpan& m = merged.back();
      m.elems = std::max(m.elem_off + m.elems, s.elem_off + s.elems) -
                m.elem_off;
      continue;
    }
    merged.push_back(s);
  }
  return merged;
}

TEST(EmbeddingSpans, MatchSortAndMergeOracleOnRandomBatches) {
  Xoshiro256 rng(29);
  std::vector<GetSpan> spans;
  std::vector<std::uint64_t> scratch;
  // (P, rows, dim): nothing divides anything; everything divides; dim < Pc
  // leaves empty slices under kColumn/kHybrid; a single rank.
  for (const auto& [nranks, rows, dim] :
       {std::tuple<int, std::uint64_t, std::uint64_t>{5, 37, 13},
        {4, 64, 8},
        {6, 10, 4},
        {8, 23, 3},
        {1, 9, 5}}) {
    for (const ShardPolicy p :
         {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
      const auto slices = row_slices(p, nranks, rows, dim);
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<std::uint64_t> batch;
        const std::uint64_t n = rng.uniform(3 * rows);
        for (std::uint64_t i = 0; i < n; ++i) {
          // Mostly a narrow window, so duplicates and runs are common.
          batch.push_back(rng.bernoulli(0.7) ? rng.uniform(std::min<
                                                   std::uint64_t>(rows, 8))
                                             : rng.uniform(rows));
        }
        if (trial % 3 == 0) batch.push_back(rows - 1);
        for (const bool combine : {false, true}) {
          const std::vector<GetSpan> want =
              oracle_spans(slices, batch, combine);
          const std::uint64_t naive = build_spans(
              p, nranks, rows, dim, batch, combine, spans, scratch);
          const auto where = [&] {
            return std::string(to_string(p)) + " P=" +
                   std::to_string(nranks) + " rows=" + std::to_string(rows) +
                   " dim=" + std::to_string(dim) + " trial " +
                   std::to_string(trial) + (combine ? " combined" : "");
          };
          EXPECT_EQ(naive, oracle_spans(slices, batch, false).size())
              << where();
          ASSERT_EQ(spans.size(), want.size()) << where();
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(spans[i].owner, want[i].owner) << where() << " #" << i;
            ASSERT_EQ(spans[i].elem_off, want[i].elem_off)
                << where() << " #" << i;
            ASSERT_EQ(spans[i].elems, want[i].elems) << where() << " #" << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Payload check
// ---------------------------------------------------------------------------

// Fetches `s` by hand from a filled copy of its owner's shard.
std::vector<float> fetch(ShardPolicy policy, int nranks, std::uint64_t rows,
                         std::uint64_t dim, const GetSpan& s) {
  std::vector<float> shard(local_elems(policy, s.owner, nranks, rows, dim));
  fill_shard(policy, s.owner, nranks, rows, dim, shard.data());
  const auto first = shard.begin() + static_cast<std::ptrdiff_t>(s.elem_off);
  return {first, first + static_cast<std::ptrdiff_t>(s.elems)};
}

TEST(EmbeddingVerify, SpanCheckCatchesOnePerturbedFloat) {
  const int nranks = 6;  // hybrid is a 2 x 3 grid
  const std::uint64_t rows = 37, dim = 13;
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    // c: columns per local row of rank 1 (elements before the row changes).
    const std::uint64_t row0 = elem_to_rowcol(p, 1, nranks, rows, dim, 0).row;
    std::uint64_t c = 1;
    while (elem_to_rowcol(p, 1, nranks, rows, dim, c).row == row0) ++c;
    ASSERT_GT(c, 1u) << to_string(p);
    // Rank 1's local rows 2..4, starting mid-row: the span crosses two
    // local-row boundaries.
    const GetSpan s{1, 2 * c + 1, 2 * c};
    const std::vector<float> good = fetch(p, nranks, rows, dim, s);
    ASSERT_EQ(good.size(), s.elems);
    EXPECT_TRUE(span_matches(p, nranks, rows, dim, s, good.data()))
        << to_string(p);
    // First element, last element, and the first element past the local-row
    // boundary (local row 3 starts at 3c, span element c - 1).
    for (const std::uint64_t at : {std::uint64_t{0}, s.elems - 1, c - 1}) {
      std::vector<float> got = good;
      got[at] += 1.0f / 1048576.0f;
      EXPECT_FALSE(span_matches(p, nranks, rows, dim, s, got.data()))
          << to_string(p) << " element " << at;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------------

Config small_cfg() {
  Config cfg;
  cfg.rows = 256;
  cfg.dim = 16;
  cfg.queries_per_rank = 4;
  cfg.lookups_per_query = 8;
  cfg.batch = 2;
  cfg.zipf_s = 0.9;
  return cfg;
}

class EmbeddingRun : public ::testing::TestWithParam<ShardPolicy> {};

TEST_P(EmbeddingRun, MpiServesVerifiedPayloads) {
  Config cfg = small_cfg();
  cfg.policy = GetParam();
  const Result r = run_mpi(simnet::Platform::perlmutter_cpu(1), 4, cfg);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_TRUE(r.verify_ok);
  EXPECT_EQ(r.queries, 16u);
  EXPECT_GT(r.qps, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_GT(r.gets, 0u);
  EXPECT_LE(r.gets, r.gets_naive);
}

TEST_P(EmbeddingRun, ShmemServesVerifiedPayloads) {
  Config cfg = small_cfg();
  cfg.policy = GetParam();
  const Result r = run_shmem(simnet::Platform::perlmutter_gpu(), 4, cfg);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_TRUE(r.verify_ok);
  EXPECT_EQ(r.queries, 16u);
  EXPECT_LE(r.gets, r.gets_naive);
}

TEST(EmbeddingRunFailure, StoppedRunIsNotVerified) {
  // A 1 us watchdog stops the serving loop early; its partial payloads
  // must not read as checked.
  const double saved = runtime::default_watchdog_virtual_us();
  runtime::set_default_watchdog_virtual_us(1.0);
  const Result r = run_mpi(simnet::Platform::perlmutter_cpu(1), 4, small_cfg());
  runtime::set_default_watchdog_virtual_us(saved);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_FALSE(r.verified);
  EXPECT_FALSE(r.verify_ok);
}

INSTANTIATE_TEST_SUITE_P(Policies, EmbeddingRun,
                         ::testing::Values(ShardPolicy::kRow,
                                           ShardPolicy::kColumn,
                                           ShardPolicy::kHybrid),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(EmbeddingRunAblations, CombiningReducesGetsNotBytes) {
  Config cfg = small_cfg();
  cfg.batch = 4;
  Config off = cfg;
  off.combine = false;
  const auto plat = simnet::Platform::perlmutter_cpu(1);
  const Result a = run_mpi(plat, 4, cfg);
  const Result b = run_mpi(plat, 4, off);
  ASSERT_TRUE(a.status.is_ok() && b.status.is_ok());
  EXPECT_LT(a.gets, b.gets);
  EXPECT_EQ(a.gets_naive, b.gets);  // combine off issues the naive count
  EXPECT_LE(a.bytes, b.bytes);      // dup rows fetched once vs repeatedly
  EXPECT_TRUE(a.verify_ok && b.verify_ok);
}

TEST(EmbeddingRunAblations, HotRowCacheCutsTraffic) {
  Config cfg = small_cfg();
  Config hot = cfg;
  hot.hot_rows = 32;  // Zipf head at s=0.9 concentrates here
  const auto plat = simnet::Platform::perlmutter_cpu(1);
  const Result a = run_mpi(plat, 4, cfg);
  const Result b = run_mpi(plat, 4, hot);
  ASSERT_TRUE(a.status.is_ok() && b.status.is_ok());
  EXPECT_EQ(a.cache_hits, 0u);
  EXPECT_GT(b.cache_hits, 0u);
  EXPECT_LT(b.bytes, a.bytes);
  EXPECT_TRUE(b.verify_ok);
}

// The same config must produce bit-identical Results under both schedulers
// — the workload's numbers are virtual-time facts.
TEST(EmbeddingDeterminism, ResultsAreSchedulerInvariant) {
  Config cfg = small_cfg();
  cfg.policy = ShardPolicy::kHybrid;
  const auto plat = simnet::Platform::perlmutter_cpu(1);

  const auto saved_sched = runtime::default_scheduler();
  std::vector<Result> rs;
  for (const auto sched : {runtime::SchedulerKind::kIndexedHeap,
                           runtime::SchedulerKind::kLinearScan}) {
    runtime::set_default_scheduler(sched);
    rs.push_back(run_mpi(plat, 4, cfg));
  }
  runtime::set_default_scheduler(saved_sched);

  for (const Result& r : rs) {
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.time_us, rs[0].time_us);
    EXPECT_EQ(r.qps, rs[0].qps);
    EXPECT_EQ(r.p50_us, rs[0].p50_us);
    EXPECT_EQ(r.p95_us, rs[0].p95_us);
    EXPECT_EQ(r.p99_us, rs[0].p99_us);
    EXPECT_EQ(r.gets, rs[0].gets);
    EXPECT_EQ(r.bytes, rs[0].bytes);
  }
}

// Both runners must be race-free under the checker in every configuration
// the bench sweeps — including the ablations, whose code paths differ.
TEST(EmbeddingCheck, RunnersAreCleanUnderTheChecker) {
  const bool saved = check::default_check();
  check::set_default_check(true);
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    Config cfg = small_cfg();
    cfg.policy = p;
    const Result r = run_mpi(simnet::Platform::perlmutter_cpu(1), 4, cfg);
    EXPECT_TRUE(r.status.is_ok()) << to_string(p) << ": "
                                  << r.status.to_string();
    const Result s = run_shmem(simnet::Platform::perlmutter_gpu(), 4, cfg);
    EXPECT_TRUE(s.status.is_ok()) << to_string(p) << ": "
                                  << s.status.to_string();
  }
  Config abl = small_cfg();
  abl.combine = false;
  abl.hot_rows = 32;
  const Result r = run_mpi(simnet::Platform::perlmutter_cpu(1), 4, abl);
  EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  check::set_default_check(saved);
}

}  // namespace
}  // namespace mrl::workloads::embedding
