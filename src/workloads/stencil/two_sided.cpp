// Two-sided stencil: four MPI_Isend/MPI_Irecv pairs + MPI_Waitall per
// iteration (the paper's baseline BSP implementation).
#include <vector>

#include "mpi/comm.hpp"
#include "workloads/stencil/driver.hpp"

namespace mrl::workloads::stencil {

void exchange_two_sided(mpi::Comm& c, LocalBlock& blk,
                        std::vector<mpi::Request>& reqs) {
  reqs.clear();
  reqs.reserve(8);  // a send and a receive per neighbor
  for (int s = 0; s < 4; ++s) {
    const int peer = blk.decomp().peer(s);
    if (peer < 0) continue;
    const std::uint64_t bytes = blk.edge_count(s) * sizeof(double);
    // My out[s] becomes the peer's in[s ^ 1] (W<->E, N<->S).
    reqs.push_back(c.isend(blk.out(s), bytes, peer, s ^ 1));
    reqs.push_back(c.irecv(blk.in(s), bytes, peer, s));
  }
  c.waitall(reqs);
}

Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  Driver drv(platform, nranks, cfg);
  const auto run = mpi::World::run(drv.engine(), [&](mpi::Comm& c) {
    LocalBlock blk(cfg, drv.decomp(c.rank()));
    std::vector<mpi::Request> reqs;
    drv.run(c.rank_ctx(), blk, [&] { c.barrier(); },
            [&](int) { exchange_two_sided(c, blk, reqs); });
  });
  return drv.finish(run, simnet::OpKind::kSend);
}

}  // namespace mrl::workloads::stencil
