// Embedding lookup over the minishmem symmetric heap: shards live in one
// collective allocation (sized for the largest shard, as symmetric memory
// must be), and lookups are blocking shmem_get round trips.
#include <algorithm>
#include <cstring>

#include "shmem/shmem.hpp"
#include "util/stats.hpp"
#include "workloads/embedding/embedding.hpp"

namespace mrl::workloads::embedding {

namespace {
constexpr double kPoolUsPerElem = 5e-4;  // same host pooling charge as MPI
}  // namespace

Result run_shmem(const simnet::Platform& platform, int nranks,
                 const Config& cfg) {
  runtime::Engine eng(platform, nranks);
  const ZipfGen zipf(cfg.rows, cfg.zipf_s);
  const std::uint64_t qpr = cfg.queries_per_rank;

  std::uint64_t max_elems = 1;
  for (int r = 0; r < nranks; ++r) {
    max_elems = std::max(
        max_elems, local_elems(cfg.policy, r, nranks, cfg.rows, cfg.dim));
  }

  std::vector<double> latency(static_cast<std::size_t>(nranks) * qpr, 0.0);
  std::vector<std::uint64_t> gets(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint64_t> naive(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint64_t> hits(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(nranks), 0);
  std::vector<std::uint8_t> bad(static_cast<std::size_t>(nranks), 0);
  double t0 = 0, t1 = 0;

  const auto run = shmem::World::run(eng, [&](shmem::Ctx& s) {
    const int p = s.pe();
    const auto sp = static_cast<std::size_t>(p);
    const shmem::Sym<float> tbl = s.allocate<float>(max_elems);
    const std::uint64_t elems =
        local_elems(cfg.policy, p, nranks, cfg.rows, cfg.dim);
    float* mine = s.local(tbl);
    for (std::uint64_t e = 0; e < elems; ++e) {
      const RowCol rc =
          elem_to_rowcol(cfg.policy, p, nranks, cfg.rows, cfg.dim, e);
      mine[e] = table_value(rc.row, rc.col);
    }
    // The barrier both publishes the filled shards and (being a global RMA
    // sync) resets the checker's history, so the serving phase starts clean.
    s.barrier_all();
    if (p == 0) t0 = s.now();

    std::vector<std::uint64_t> rows_buf;
    std::vector<std::uint64_t> batch_rows;
    std::vector<GetSpan> spans;
    std::vector<float> staging;
    for (std::uint64_t q0 = 0; q0 < qpr; q0 += cfg.batch) {
      const std::uint64_t nq = std::min(cfg.batch, qpr - q0);
      const simnet::TimeUs t_batch = s.now();
      batch_rows.clear();
      for (std::uint64_t i = 0; i < nq; ++i) {
        const std::uint64_t gid = static_cast<std::uint64_t>(p) * qpr + q0 + i;
        query_rows(zipf, cfg.seed, gid, cfg.lookups_per_query, rows_buf);
        for (const std::uint64_t row : rows_buf) {
          if (row < cfg.hot_rows) {
            ++hits[sp];
            continue;
          }
          batch_rows.push_back(row);
        }
      }
      naive[sp] += build_spans(cfg.policy, nranks, cfg.rows, cfg.dim,
                               batch_rows, cfg.combine, spans);
      std::uint64_t total = 0;
      for (const GetSpan& sg : spans) total += sg.elems;
      staging.resize(std::max<std::uint64_t>(total, 1));
      std::uint64_t soff = 0;
      for (const GetSpan& sg : spans) {
        s.get(staging.data() + soff, tbl.at(sg.elem_off), sg.elems, sg.owner);
        soff += sg.elems;
      }
      gets[sp] += spans.size();
      bytes[sp] += total * sizeof(float);
      s.compute(kPoolUsPerElem * static_cast<double>(nq) *
                static_cast<double>(cfg.lookups_per_query) *
                static_cast<double>(cfg.dim));
      const double lat = s.now() - t_batch;
      for (std::uint64_t i = 0; i < nq; ++i) {
        latency[sp * qpr + q0 + i] = lat;
        eng.metrics().on_query(p, lat);
      }
      if (cfg.verify) {
        soff = 0;
        for (const GetSpan& sg : spans) {
          for (std::uint64_t e = 0; e < sg.elems; ++e) {
            const RowCol rc =
                elem_to_rowcol(cfg.policy, sg.owner, nranks, cfg.rows,
                               cfg.dim, sg.elem_off + e);
            if (staging[soff + e] != table_value(rc.row, rc.col)) bad[sp] = 1;
          }
          soff += sg.elems;
        }
      }
    }

    s.barrier_all();
    if (p == 0) t1 = s.now();
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
