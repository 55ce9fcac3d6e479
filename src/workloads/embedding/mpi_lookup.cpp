// Embedding lookup over minimpi RMA windows: each rank exposes its table
// shard through a window and serves its query stream with blocking
// MPI_Get-style reads (request/response round trips), batch by batch.
#include <algorithm>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "workloads/embedding/server.hpp"

namespace mrl::workloads::embedding {

Result run_mpi(const simnet::Platform& platform, int nranks,
               const Config& cfg) {
  runtime::Engine eng(platform, nranks);
  Server server(eng, cfg);
  double t0 = 0, t1 = 0;

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    const int p = c.rank();
    const std::uint64_t elems =
        local_elems(cfg.policy, p, nranks, cfg.rows, cfg.dim);
    std::vector<float> shard(std::max<std::uint64_t>(elems, 1), 0.0f);
    // Shards are filled before create_win exposes them, so no local_write
    // annotations are needed: nothing can race with pre-exposure stores.
    fill_shard(cfg.policy, p, nranks, cfg.rows, cfg.dim, shard.data());
    mpi::WinHandle win =
        c.create_win(shard.data(), shard.size() * sizeof(float));

    c.barrier();
    if (p == 0) t0 = c.now();
    server.serve(c.rank_ctx(), [&](float* dest, const GetSpan& s) {
      win.get(dest, s.elems * sizeof(float), s.owner,
              s.elem_off * sizeof(float));
    });
    c.barrier();
    if (p == 0) t1 = c.now();
    win.fence();
  });
  return server.finish(run, t1 - t0);
}

}  // namespace mrl::workloads::embedding
