// One-sided stencil: four MPI_Put inside a pair of MPI_Win_fence per
// iteration (the paper's one-sided CPU implementation, Sec III-A). One
// window exposes all four incoming halo buffers; senders compute their
// peers' buffer offsets from the (deterministic) decomposition.
#include <algorithm>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl::workloads::stencil {

Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  runtime::Engine eng(platform, nranks);

  const std::vector<double> reference =
      cfg.verify ? serial_reference(cfg) : std::vector<double>{};

  Result out;
  std::vector<double> errs(static_cast<std::size_t>(nranks), 0.0);
  double t0 = 0, t1 = 0;

  int px = cfg.px, py = cfg.py;
  if (px <= 0 || py <= 0) choose_grid(nranks, &px, &py);

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    const Decomp d = make_decomp(cfg.n, nranks, c.rank(), px, py);
    LocalBlock blk(cfg, d);
    mpi::WinHandle win = c.create_win(blk.in_region(), blk.in_region_bytes());

    // My out[side] lands in the peer's in[side ^ 1] (W<->E, N<->S); its
    // offset depends only on the peer's decomposition, so resolve it once.
    const int peers[4] = {d.west, d.east, d.north, d.south};
    std::uint64_t peer_in_off[4] = {0, 0, 0, 0};
    for (int s = 0; s < 4; ++s) {
      if (peers[s] < 0) continue;
      peer_in_off[s] = LocalBlock::in_offset_bytes(
          make_decomp(cfg.n, nranks, peers[s], px, py), s ^ 1);
    }

    c.barrier();
    if (c.rank() == 0) t0 = c.now();
    for (int it = 0; it < cfg.iters; ++it) {
      blk.pack_edges();
      // Fence pair: the opening fence separates last iteration's halo reads
      // from this iteration's remote writes.
      win.fence();
      for (int s = 0; s < 4; ++s) {
        if (peers[s] < 0) continue;
        win.put(blk.out(s), blk.edge_count(s) * sizeof(double), peers[s],
                peer_in_off[s]);
      }
      win.fence();
      blk.sweep();
      c.compute(sweep_time_us(
          platform, blk.sweep_bytes(),
          static_cast<std::uint64_t>(d.w()) * static_cast<std::uint64_t>(d.h())));
    }
    c.barrier();
    if (c.rank() == 0) t1 = c.now();
    if (cfg.verify) {
      errs[static_cast<std::size_t>(c.rank())] = blk.compare(reference, cfg.n);
    }
  });

  out.status = run.status;
  out.time_us = t1 - t0;
  out.verified = cfg.verify;
  out.max_abs_err = *std::max_element(errs.begin(), errs.end());
  out.msgs = eng.trace().summarize(simnet::OpKind::kPut);
  if (eng.metrics().enabled()) out.metrics = eng.metrics_report();
  return out;
}

}  // namespace mrl::workloads::stencil
