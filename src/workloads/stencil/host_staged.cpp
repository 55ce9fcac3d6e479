// Host-staged GPU stencil — the baseline the paper's introduction argues
// against: "the most common way of communicating on multiple GPU systems is
// to communicate via the host processor". GPU kernels compute; every halo
// exchange stages through the host (D2H copy, host two-sided MPI, H2D copy)
// with kernel-launch/synchronization overhead on both sides. Contrast with
// run_shmem_gpu, where the GPU initiates puts directly.
#include <vector>

#include "mpi/comm.hpp"
#include "util/units.hpp"
#include "workloads/stencil/driver.hpp"

namespace mrl::workloads::stencil {

namespace {
// PCIe4 x16 staging rate and per-transfer launch/sync overhead.
constexpr double kPcieGbs = 25.0;
constexpr double kStageOverheadUs = 8.0;  // cudaMemcpy + stream sync
}  // namespace

Result run_host_staged_gpu(const simnet::Platform& platform, int nranks,
                           const Config& cfg) {
  MRL_CHECK_MSG(platform.is_gpu(), "host staging needs a GPU platform");
  Driver drv(platform, nranks, cfg);
  // Host-initiated two-sided MPI is the p2p flavor on GPU platforms.
  const auto run = mpi::World::run(drv.engine(), [&](mpi::Comm& c) {
    LocalBlock blk(cfg, drv.decomp(c.rank()));
    // All outgoing halos cross PCIe to the host before any send (D2H); as
    // many bytes come back to the device after the receives (H2D).
    std::uint64_t out_bytes = 0;
    for (int s = 0; s < 4; ++s) {
      if (blk.decomp().peer(s) >= 0) {
        out_bytes += blk.edge_count(s) * sizeof(double);
      }
    }
    const double stage_us =
        kStageOverheadUs +
        static_cast<double>(out_bytes) * gbs_to_us_per_byte(kPcieGbs);
    std::vector<mpi::Request> reqs;
    drv.run(c.rank_ctx(), blk, [&] { c.barrier(); }, [&](int) {
      if (out_bytes > 0) c.compute(stage_us);
      exchange_two_sided(c, blk, reqs);
      if (out_bytes > 0) c.compute(stage_us);
    });
  });
  return drv.finish(run, simnet::OpKind::kSend);
}

}  // namespace mrl::workloads::stencil
