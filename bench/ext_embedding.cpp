// Extension bench: DLRM-style embedding-lookup serving (queries/sec vs p99
// latency) over the one-sided machinery — the serving-scale workload next
// to the paper's throughput benches. Sweeps batch size × shard policy ×
// Zipf skew, plus three ablations the roofline model predicts:
//
//   - software combining on/off (per-message α amortization; the win grows
//     with skew because hot rows repeat within a batch),
//   - hot-row replication (the Zipf head served without fabric traffic),
//   - degraded network (the fault model's intensity knob) to show how the
//     msg-bound serving path inflates p99 first.
//
// All numbers are virtual-time quantities: the CSV is byte-identical across
// {fibers,threads} × {heap,linear} × --jobs values (CI-enforced) and the
// bench runs clean under --check.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "simnet/fault.hpp"
#include "simnet/platform.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workloads/embedding/embedding.hpp"

namespace {

struct ExtraOpts {
  long long rows = -1;     // -1 = size by --full below
  long long dim = -1;
  long long queries = -1;  // per rank
  long long seed = -1;
};

struct Spec {
  std::string series;
  bool shmem = false;
  double intensity = 0.0;  // fault-model intensity (0 = pristine)
  int ranks = 8;
  mrl::workloads::embedding::Config cfg;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mrl;
  namespace emb = workloads::embedding;

  ExtraOpts eo;
  auto opt = [](const char* name, const char* help, int min,
                long long* dst) {
    return util::int_flag(name, help, min, [dst](int n) { *dst = n; });
  };
  const auto args = bench::Args::parse(
      argc, argv,
      {opt("--rows",
           "embedding-table rows (N >= 64; default 4096, --full 65536)", 64,
           &eo.rows),
       opt("--dim", "floats per row (default 32, --full 64)", 1, &eo.dim),
       opt("--queries", "queries per rank (default 16, --full 64)", 1,
           &eo.queries),
       opt("--seed", "query-stream seed (default 1234)", 0, &eo.seed)});
  bench::banner("ext_embedding — distributed embedding-lookup serving",
                "extension: DLRM-style serving (QPS vs p99) on the paper's "
                "one-sided model");

  emb::Config base;
  base.rows = eo.rows >= 0 ? static_cast<std::uint64_t>(eo.rows)
                           : (args.full ? 65536 : 4096);
  base.dim =
      eo.dim >= 0 ? static_cast<std::uint64_t>(eo.dim) : (args.full ? 64 : 32);
  base.queries_per_rank = eo.queries >= 0
                              ? static_cast<std::uint64_t>(eo.queries)
                              : (args.full ? 64 : 16);
  base.lookups_per_query = 16;
  if (eo.seed >= 0) base.seed = static_cast<std::uint64_t>(eo.seed);
  base.verify = true;

  std::printf("table: %llu rows x %llu dims, %llu queries/rank, %llu "
              "lookups/query, 8 ranks\n\n",
              static_cast<unsigned long long>(base.rows),
              static_cast<unsigned long long>(base.dim),
              static_cast<unsigned long long>(base.queries_per_rank),
              static_cast<unsigned long long>(base.lookups_per_query));

  // The sweep grid. Row ids are in Zipf popularity order, so hot_rows
  // replicates exactly the head the skew concentrates on.
  std::vector<Spec> specs;
  for (const emb::ShardPolicy policy :
       {emb::ShardPolicy::kRow, emb::ShardPolicy::kColumn,
        emb::ShardPolicy::kHybrid}) {
    for (const std::uint64_t batch : {1ull, 4ull, 16ull}) {
      for (const double zipf : {0.0, 0.9, 1.2}) {
        Spec s;
        s.series = "mpi";
        s.cfg = base;
        s.cfg.policy = policy;
        s.cfg.batch = batch;
        s.cfg.zipf_s = zipf;
        specs.push_back(std::move(s));
      }
    }
  }
  for (const double zipf : {0.9, 1.2}) {  // combining ablation
    Spec s;
    s.series = "mpi-nocombine";
    s.cfg = base;
    s.cfg.batch = 16;
    s.cfg.zipf_s = zipf;
    s.cfg.combine = false;
    specs.push_back(std::move(s));
  }
  {  // hot-row replication ablation
    Spec s;
    s.series = "mpi-hotcache";
    s.cfg = base;
    s.cfg.batch = 16;
    s.cfg.zipf_s = 1.2;
    s.cfg.hot_rows = 128;
    specs.push_back(std::move(s));
  }
  {  // degraded network: the serving path under the fault model
    Spec s;
    s.series = "mpi-degraded";
    s.intensity = 0.5;
    s.cfg = base;
    s.cfg.batch = 8;
    s.cfg.zipf_s = 0.9;
    specs.push_back(std::move(s));
  }
  for (const std::uint64_t batch : {1ull, 16ull}) {  // SHMEM flavor
    Spec s;
    s.series = "shmem";
    s.shmem = true;
    s.ranks = 4;  // one PE per GPU; Perlmutter has 4
    s.cfg = base;
    s.cfg.batch = batch;
    s.cfg.zipf_s = 0.9;
    specs.push_back(std::move(s));
  }

  // Independent engine runs: pre-indexed slots keep output bytes identical
  // for any --jobs value.
  std::vector<emb::Result> results(specs.size());
  core::parallel_for_indexed(specs.size(), args.jobs,
                             [&](int /*worker*/, std::size_t i) {
    const Spec& s = specs[i];
    simnet::Platform plat = s.shmem ? simnet::Platform::perlmutter_gpu()
                                    : simnet::Platform::perlmutter_cpu(1);
    if (s.intensity > 0) {
      plat.set_faults(
          simnet::FaultSpec::at_intensity(s.intensity, args.fault_seed));
    }
    results[i] = s.shmem ? emb::run_shmem(plat, s.ranks, s.cfg)
                         : emb::run_mpi(plat, s.ranks, s.cfg);
  });

  std::vector<std::vector<std::string>> csv;
  csv.push_back({"series", "policy", "batch", "zipf", "combine", "hot_rows",
                 "intensity", "ranks", "qps", "p50_us", "p95_us", "p99_us",
                 "gets", "gets_naive", "cache_hits", "bytes"});
  TextTable t({"series", "policy", "batch", "zipf", "qps", "p50", "p99",
               "gets", "naive"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Spec& s = specs[i];
    const emb::Result& r = results[i];
    MRL_CHECK_MSG(r.status.is_ok(), r.status.to_string().c_str());
    MRL_CHECK_MSG(!r.verified || r.verify_ok,
                  "embedding payload verification failed");
    t.add_row({s.series, emb::to_string(s.cfg.policy),
               std::to_string(s.cfg.batch), format_double(s.cfg.zipf_s, 1),
               format_count(static_cast<std::uint64_t>(r.qps)),
               format_time_us(r.p50_us), format_time_us(r.p99_us),
               std::to_string(r.gets), std::to_string(r.gets_naive)});
    csv.push_back({s.series, emb::to_string(s.cfg.policy),
                   std::to_string(s.cfg.batch),
                   format_double(s.cfg.zipf_s, 1),
                   s.cfg.combine ? "1" : "0", std::to_string(s.cfg.hot_rows),
                   format_double(s.intensity, 2), std::to_string(s.ranks),
                   format_double(r.qps, 2), format_double(r.p50_us, 3),
                   format_double(r.p95_us, 3), format_double(r.p99_us, 3),
                   std::to_string(r.gets), std::to_string(r.gets_naive),
                   std::to_string(r.cache_hits), std::to_string(r.bytes)});
  }

  std::printf("%s\n",
              t.render("ext_embedding: QPS vs p99 per-query latency").c_str());

  // Headline: combining leverage at high skew. Grid order is policy-major
  // (3 batches x 3 skews each): row/batch16/zipf1.2 is slot 8, and the
  // matching combine-off ablation is the second spec after the 27-slot grid.
  const emb::Result& comb_on = results[8];
  const emb::Result& comb_off = results[28];
  if (comb_off.gets > 0) {
    std::printf("software combining at zipf 1.2, batch 16 (row policy): "
                "%llu -> %llu gets (%.1fx fewer), p99 %.1fus -> %.1fus\n",
                static_cast<unsigned long long>(comb_off.gets),
                static_cast<unsigned long long>(comb_on.gets),
                static_cast<double>(comb_off.gets) /
                    static_cast<double>(comb_on.gets),
                comb_off.p99_us, comb_on.p99_us);
  }
  bench::dump_csv("ext_embedding", csv);
  return 0;
}
