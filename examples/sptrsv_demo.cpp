// SpTRSV demo: generates a synthetic supernodal triangular factor, shows its
// DAG/message statistics, then solves it with all three communication models
// and checks each against sequential forward substitution (Sec III-B).
//
// Usage: ./examples/sptrsv_demo [n] [ranks]
#include <cstdio>
#include <cstdlib>

#include "simnet/platform.hpp"
#include "util/histogram.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workloads/sptrsv/sptrsv.hpp"

int main(int argc, char** argv) {
  using namespace mrl;
  namespace sp = workloads::sptrsv;

  const auto n = parse_cli_int(argc > 1 ? argv[1] : "6000", 1, "matrix size");
  const auto ranks_v = parse_cli_int(argc > 2 ? argv[2] : "8", 1, "rank count");
  if (!n || !ranks_v) {
    std::fprintf(stderr, "usage: sptrsv_demo [n] [ranks]\n");
    return 2;
  }
  sp::GenConfig g;
  g.n = static_cast<int>(*n);
  const int ranks = static_cast<int>(*ranks_v);

  const auto L = sp::SupernodalMatrix::generate(g);
  std::printf("synthetic supernodal L: n=%d, %d supernodes, %llu nnz\n",
              L.n(), L.num_supernodes(),
              static_cast<unsigned long long>(L.nnz()));

  Log2Histogram sizes;
  for (int J = 0; J < L.num_supernodes(); ++J) {
    sizes.add_n(static_cast<double>(L.sn_size(J)) * 8, L.col(J).size());
  }
  std::printf("\nmessage-size distribution (bytes, one row block = one "
              "message):\n%s\n", sizes.render("B").c_str());

  sp::Config cfg;
  TextTable t({"variant", "platform", "SOLVE time", "rel. error",
               "avg msg", "msg latency"});
  auto row = [&](const char* name, const char* plat, const sp::Result& r) {
    t.add_row({name, plat, format_time_us(r.time_us),
               r.verified ? format_double(r.rel_err, 14) : "FAILED",
               format_bytes(static_cast<std::uint64_t>(r.msgs.avg_msg_bytes)),
               format_time_us(r.msgs.avg_latency_us)});
  };

  const auto cpu = simnet::Platform::perlmutter_cpu();
  row("two-sided MPI", "Perlmutter CPU", sp::run_two_sided(cpu, ranks, L, cfg));
  row("one-sided MPI (4 ops + ack)", "Perlmutter CPU",
      sp::run_one_sided(cpu, ranks, L, cfg));
  const auto gpu = simnet::Platform::perlmutter_gpu();
  row("NVSHMEM put_signal + wait_until_any", "Perlmutter GPU",
      sp::run_shmem_gpu(gpu, std::min(ranks, gpu.max_ranks()), L, cfg));

  std::printf("%s\n", t.render().c_str());
  std::printf("Note: one-sided is SLOWER on CPUs — each message costs four\n"
              "MPI operations plus the Listing-1 acknowledgment scan (Fig 8).\n");
  return 0;
}
