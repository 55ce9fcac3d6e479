// GPU stencil: NVSHMEM-style put-with-signal halo exchange
// (nvshmem_double_put_signal_nbi + nvshmem_uint64_wait_until_all, Sec III-A).
// Incoming halo buffers live in the symmetric heap, sized by the maximum
// block so every PE's allocation is symmetric; signals carry the iteration
// number so they never need resetting. Halo buffers are double-buffered by
// iteration parity: a neighbor may run one iteration ahead, and its next put
// must not clobber data this PE has not consumed yet.
#include <algorithm>
#include <cstring>

#include "shmem/shmem.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl::workloads::stencil {

Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  runtime::Engine eng(platform, nranks);

  const std::vector<double> reference =
      cfg.verify ? serial_reference(cfg) : std::vector<double>{};

  Result out;
  std::vector<double> errs(static_cast<std::size_t>(nranks), 0.0);
  double t0 = 0, t1 = 0;

  int px = cfg.px, py = cfg.py;
  if (px <= 0 || py <= 0) choose_grid(nranks, &px, &py);
  const int max_w = (cfg.n + px - 1) / px;
  const int max_h = (cfg.n + py - 1) / py;

  shmem::World::Options wopt;
  wopt.heap_bytes =
      static_cast<std::uint64_t>(4 * (max_w + max_h)) * sizeof(double) +
      8 * 8 + (1u << 16);

  const auto run = shmem::World::run(
      eng,
      [&](shmem::Ctx& s) {
        const Decomp d = make_decomp(cfg.n, nranks, s.pe(), px, py);
        LocalBlock blk(cfg, d);
        // Symmetric incoming halo buffers (max-sized, two parities) and
        // 2x4 signals.
        shmem::Sym<double> in_sym[2][4];
        for (int par = 0; par < 2; ++par) {
          in_sym[par][0] = s.allocate<double>(static_cast<std::uint64_t>(max_h));
          in_sym[par][1] = s.allocate<double>(static_cast<std::uint64_t>(max_h));
          in_sym[par][2] = s.allocate<double>(static_cast<std::uint64_t>(max_w));
          in_sym[par][3] = s.allocate<double>(static_cast<std::uint64_t>(max_w));
        }
        auto sig = s.allocate<std::uint64_t>(8);  // [parity*4 + side]

        const int peers[4] = {d.west, d.east, d.north, d.south};
        std::int32_t mask[4];
        for (int i = 0; i < 4; ++i) mask[i] = peers[i] < 0 ? 1 : 0;
        auto opposite = [](int side) { return side ^ 1; };

        s.barrier_all();
        if (s.pe() == 0) t0 = s.now();
        for (int it = 0; it < cfg.iters; ++it) {
          const int par = it % 2;
          blk.pack_edges();
          for (int side = 0; side < 4; ++side) {
            if (peers[side] < 0) continue;
            // My out[side] lands in the peer's parity buffer for
            // in[opposite(side)], then the matching signal is set to it+1.
            const std::uint64_t slot =
                static_cast<std::uint64_t>(par * 4 + opposite(side));
            s.put_signal_nbi(in_sym[par][opposite(side)], blk.out(side),
                             blk.edge_count(side), sig.at(slot),
                             static_cast<std::uint64_t>(it) + 1, peers[side]);
          }
          s.wait_until_all(sig.at(static_cast<std::uint64_t>(par * 4)), 4,
                           mask, static_cast<std::uint64_t>(it) + 1);
          // Stage symmetric halo buffers into the block's working halos.
          for (int side = 0; side < 4; ++side) {
            if (peers[side] < 0) continue;
            std::memcpy(blk.in(side), s.local(in_sym[par][side]),
                        blk.edge_count(side) * sizeof(double));
          }
          s.quiet();  // source buffers reusable next iteration
          blk.sweep();
          s.compute(sweep_time_us(platform, blk.sweep_bytes(),
                                  static_cast<std::uint64_t>(d.w()) *
                                      static_cast<std::uint64_t>(d.h())));
        }
        s.barrier_all();
        if (s.pe() == 0) t1 = s.now();
        if (cfg.verify) {
          errs[static_cast<std::size_t>(s.pe())] =
              blk.compare(reference, cfg.n);
        }
      },
      wopt);

  out.status = run.status;
  out.time_us = t1 - t0;
  out.verified = cfg.verify;
  out.max_abs_err = *std::max_element(errs.begin(), errs.end());
  out.msgs = eng.trace().summarize(simnet::OpKind::kPutSignal);
  if (eng.metrics().enabled()) out.metrics = eng.metrics_report();
  return out;
}

}  // namespace mrl::workloads::stencil
