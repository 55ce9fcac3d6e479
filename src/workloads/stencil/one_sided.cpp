// One-sided stencil: four MPI_Put inside a pair of MPI_Win_fence per
// iteration (the paper's one-sided CPU implementation, Sec III-A). One
// window exposes all four incoming halo buffers; senders compute their
// peers' buffer offsets from the (deterministic) decomposition.
#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "workloads/stencil/driver.hpp"

namespace mrl::workloads::stencil {

Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  Driver drv(platform, nranks, cfg);
  const auto run = mpi::World::run(drv.engine(), [&](mpi::Comm& c) {
    LocalBlock blk(cfg, drv.decomp(c.rank()));
    mpi::WinHandle win = c.create_win(blk.in_region(), blk.in_region_bytes());

    // My out[side] lands in the peer's in[side ^ 1] (W<->E, N<->S); its
    // offset depends only on the peer's decomposition, so resolve it once.
    std::uint64_t peer_in_off[4] = {0, 0, 0, 0};
    for (int s = 0; s < 4; ++s) {
      const int peer = blk.decomp().peer(s);
      if (peer >= 0) {
        peer_in_off[s] = LocalBlock::in_offset_bytes(drv.decomp(peer), s ^ 1);
      }
    }

    drv.run(c.rank_ctx(), blk, [&] { c.barrier(); }, [&](int) {
      // Fence pair: the opening fence separates last iteration's halo reads
      // from this iteration's remote writes.
      win.fence();
      for (int s = 0; s < 4; ++s) {
        const int peer = blk.decomp().peer(s);
        if (peer < 0) continue;
        win.put(blk.out(s), blk.edge_count(s) * sizeof(double), peer,
                peer_in_off[s]);
      }
      win.fence();
    });
  });
  return drv.finish(run, simnet::OpKind::kPut);
}

}  // namespace mrl::workloads::stencil
