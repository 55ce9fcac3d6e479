// Embedding lookup over the minishmem symmetric heap: shards live in one
// collective allocation (sized for the largest shard, as symmetric memory
// must be), and lookups are blocking shmem_get round trips.
#include <algorithm>

#include "shmem/shmem.hpp"
#include "workloads/embedding/server.hpp"

namespace mrl::workloads::embedding {

Result run_shmem(const simnet::Platform& platform, int nranks,
                 const Config& cfg) {
  runtime::Engine eng(platform, nranks);
  Server server(eng, cfg);
  std::uint64_t max_elems = 1;
  for (int r = 0; r < nranks; ++r) {
    max_elems = std::max(
        max_elems, local_elems(cfg.policy, r, nranks, cfg.rows, cfg.dim));
  }
  double t0 = 0, t1 = 0;

  const auto run = shmem::World::run(eng, [&](shmem::Ctx& s) {
    const int p = s.pe();
    const shmem::Sym<float> tbl = s.allocate<float>(max_elems);
    fill_shard(cfg.policy, p, nranks, cfg.rows, cfg.dim, s.local(tbl));
    // The barrier both publishes the filled shards and (being a global RMA
    // sync) resets the checker's history, so the serving phase starts clean.
    s.barrier_all();
    if (p == 0) t0 = s.now();
    server.serve(s.rank_ctx(), [&](float* dest, const GetSpan& sg) {
      s.get(dest, tbl.at(sg.elem_off), sg.elems, sg.owner);
    });
    s.barrier_all();
    if (p == 0) t1 = s.now();
  });
  return server.finish(run, t1 - t0);
}

}  // namespace mrl::workloads::embedding
