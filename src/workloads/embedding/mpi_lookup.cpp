// Embedding lookup over minimpi RMA windows: each rank exposes its table
// shard through a window and serves its query stream with blocking
// MPI_Get-style reads (request/response round trips), batch by batch.
#include <algorithm>
#include <cstring>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "util/stats.hpp"
#include "workloads/embedding/embedding.hpp"

namespace mrl::workloads::embedding {

namespace {
// Host-side pooling/reduction cost per gathered element (us): charged per
// query over lookups × dim whether the row came from the fabric or a
// replica, so caching changes network time only.
constexpr double kPoolUsPerElem = 5e-4;
}  // namespace

Result run_mpi(const simnet::Platform& platform, int nranks,
               const Config& cfg) {
  runtime::Engine eng(platform, nranks);
  const ZipfGen zipf(cfg.rows, cfg.zipf_s);
  const std::uint64_t qpr = cfg.queries_per_rank;

  std::vector<double> latency(static_cast<std::size_t>(nranks) * qpr, 0.0);
  std::vector<std::uint64_t> gets(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint64_t> naive(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint64_t> hits(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint8_t> bad(static_cast<std::size_t>(nranks), 0);
  double t0 = 0, t1 = 0;

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    const int p = c.rank();
    const auto sp = static_cast<std::size_t>(p);
    const std::uint64_t elems =
        local_elems(cfg.policy, p, nranks, cfg.rows, cfg.dim);
    std::vector<float> shard(std::max<std::uint64_t>(elems, 1), 0.0f);
    // Shards are filled before create_win exposes them, so no local_write
    // annotations are needed: nothing can race with pre-exposure stores.
    for (std::uint64_t e = 0; e < elems; ++e) {
      const RowCol rc =
          elem_to_rowcol(cfg.policy, p, nranks, cfg.rows, cfg.dim, e);
      shard[e] = table_value(rc.row, rc.col);
    }
    mpi::WinHandle win =
        c.create_win(shard.data(), shard.size() * sizeof(float));

    c.barrier();
    if (p == 0) t0 = c.now();

    std::vector<std::uint64_t> rows_buf;
    std::vector<std::uint64_t> batch_rows;
    std::vector<GetSpan> spans;
    std::vector<float> staging;
    for (std::uint64_t q0 = 0; q0 < qpr; q0 += cfg.batch) {
      const std::uint64_t nq = std::min(cfg.batch, qpr - q0);
      const simnet::TimeUs t_batch = c.now();
      batch_rows.clear();
      for (std::uint64_t i = 0; i < nq; ++i) {
        const std::uint64_t gid = static_cast<std::uint64_t>(p) * qpr + q0 + i;
        query_rows(zipf, cfg.seed, gid, cfg.lookups_per_query, rows_buf);
        for (const std::uint64_t row : rows_buf) {
          if (row < cfg.hot_rows) {
            ++hits[sp];  // replicated heavy hitter: no fabric traffic
            continue;
          }
          batch_rows.push_back(row);
        }
      }
      naive[sp] += build_spans(cfg.policy, nranks, cfg.rows, cfg.dim,
                               batch_rows, cfg.combine, spans);
      std::uint64_t total = 0;
      for (const GetSpan& s : spans) total += s.elems;
      staging.resize(std::max<std::uint64_t>(total, 1));
      std::uint64_t soff = 0;
      // Single serving thread: gets issue serially (each is a blocking
      // round trip), exactly the small-op pattern the roofline model bills.
      for (const GetSpan& s : spans) {
        win.get(staging.data() + soff, s.elems * sizeof(float), s.owner,
                s.elem_off * sizeof(float));
        soff += s.elems;
      }
      gets[sp] += spans.size();
      bytes[sp] += total * sizeof(float);
      c.compute(kPoolUsPerElem * static_cast<double>(nq) *
                static_cast<double>(cfg.lookups_per_query) *
                static_cast<double>(cfg.dim));
      const double lat = c.now() - t_batch;
      for (std::uint64_t i = 0; i < nq; ++i) {
        latency[sp * qpr + q0 + i] = lat;
        eng.metrics().on_query(p, lat);
      }
      if (cfg.verify) {
        soff = 0;
        for (const GetSpan& s : spans) {
          for (std::uint64_t e = 0; e < s.elems; ++e) {
            const RowCol rc = elem_to_rowcol(cfg.policy, s.owner, nranks,
                                             cfg.rows, cfg.dim, s.elem_off + e);
            if (staging[soff + e] != table_value(rc.row, rc.col)) bad[sp] = 1;
          }
          soff += s.elems;
        }
      }
    }

    c.barrier();
    if (p == 0) t1 = c.now();
    win.fence();
  });

  Result out;
  out.status = run.status;
  out.time_us = t1 - t0;
  out.queries = qpr * static_cast<std::uint64_t>(nranks);
  out.qps = out.time_us > 0
                ? static_cast<double>(out.queries) / (out.time_us * 1e-6)
                : 0;
  if (!latency.empty() && run.ok()) {
    out.p50_us = percentile(latency, 50);
    out.p95_us = percentile(latency, 95);
    out.p99_us = percentile(latency, 99);
  }
  for (int r = 0; r < nranks; ++r) {
    const auto sr = static_cast<std::size_t>(r);
    out.gets += gets[sr];
    out.gets_naive += naive[sr];
    out.cache_hits += hits[sr];
    out.bytes += bytes[sr];
  }
  out.verified = cfg.verify;
  if (cfg.verify && run.ok()) {
    out.verify_ok =
        std::none_of(bad.begin(), bad.end(), [](std::uint8_t b) { return b; });
  }
  out.msgs = eng.trace().summarize();
  release_freed_heap();
  return out;
}

}  // namespace mrl::workloads::embedding
