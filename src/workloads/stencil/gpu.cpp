// GPU stencil: NVSHMEM-style put-with-signal halo exchange
// (nvshmem_double_put_signal_nbi + nvshmem_uint64_wait_until_all, Sec III-A).
// Incoming halo buffers live in the symmetric heap, sized by the maximum
// block so every PE's allocation is symmetric; signals carry the iteration
// number so they never need resetting. Halo buffers are double-buffered by
// iteration parity: a neighbor may run one iteration ahead, and its next put
// must not clobber data this PE has not consumed yet.
#include <cstring>

#include "shmem/shmem.hpp"
#include "workloads/stencil/driver.hpp"

namespace mrl::workloads::stencil {

Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  Driver drv(platform, nranks, cfg);
  const int max_w = (cfg.n + drv.px() - 1) / drv.px();
  const int max_h = (cfg.n + drv.py() - 1) / drv.py();

  shmem::World::Options wopt;
  wopt.heap_bytes =
      static_cast<std::uint64_t>(4 * (max_w + max_h)) * sizeof(double) +
      8 * 8 + (1u << 16);

  const auto run = shmem::World::run(
      drv.engine(),
      [&](shmem::Ctx& s) {
        LocalBlock blk(cfg, drv.decomp(s.pe()));
        // Symmetric incoming halo buffers (max-sized, two parities) and
        // 2x4 signals.
        shmem::Sym<double> in_sym[2][4];
        for (auto& par : in_sym) {
          for (int side = 0; side < 4; ++side) {  // W, E: columns; N, S: rows
            par[side] = s.allocate<double>(
                static_cast<std::uint64_t>(side < 2 ? max_h : max_w));
          }
        }
        auto sig = s.allocate<std::uint64_t>(8);  // [parity*4 + side]

        std::int32_t mask[4];
        for (int i = 0; i < 4; ++i) mask[i] = blk.decomp().peer(i) < 0 ? 1 : 0;

        drv.run(s.rank_ctx(), blk, [&] { s.barrier_all(); }, [&](int it) {
          const int par = it % 2;
          const std::uint64_t value = static_cast<std::uint64_t>(it) + 1;
          for (int side = 0; side < 4; ++side) {
            const int peer = blk.decomp().peer(side);
            if (peer < 0) continue;
            // My out[side] lands in the peer's parity buffer for
            // in[side ^ 1], then the matching signal is set to it+1.
            const std::uint64_t slot =
                static_cast<std::uint64_t>(par * 4 + (side ^ 1));
            s.put_signal_nbi(in_sym[par][side ^ 1], blk.out(side),
                             blk.edge_count(side), sig.at(slot), value, peer);
          }
          s.wait_until_all(sig.at(static_cast<std::uint64_t>(par * 4)), 4,
                           mask, value);
          // Stage symmetric halo buffers into the block's working halos.
          for (int side = 0; side < 4; ++side) {
            if (blk.decomp().peer(side) < 0) continue;
            std::memcpy(blk.in(side), s.local(in_sym[par][side]),
                        blk.edge_count(side) * sizeof(double));
          }
          s.quiet();  // source buffers reusable next iteration
        });
      },
      wopt);
  return drv.finish(run, simnet::OpKind::kPutSignal);
}

}  // namespace mrl::workloads::stencil
