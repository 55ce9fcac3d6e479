// Two-sided SpTRSV: MPI_Isend for x fan-out and partial sums; a
// MPI_Recv(ANY_SOURCE) loop sized by the precomputed expected message count
// (the paper's baseline, Sec III-B).
#include <cstring>

#include "mpi/comm.hpp"
#include "workloads/sptrsv/solver_core.hpp"

namespace mrl::workloads::sptrsv {

Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const SupernodalMatrix& L, const Config& cfg) {
  Driver drv(platform, nranks, L, cfg);
  const auto max_sn = static_cast<std::size_t>(drv.max_sn());

  const auto run = mpi::World::run(drv.engine(), [&](mpi::Comm& c) {
    const SolvePlan plan = drv.plan(c.rank());
    // A message is the receive slot it fills (8 bytes), then the values.
    std::vector<std::byte> sendbuf(8 + max_sn * 8);
    drv.solve(
        c.rank_ctx(), plan, [&] { c.barrier(); },
        [&](int dest, int slot, const double* vals, int count) {
          const std::int64_t slot64 = slot;
          const auto bytes = static_cast<std::size_t>(count) * 8;
          std::memcpy(sendbuf.data(), &slot64, 8);
          std::memcpy(sendbuf.data() + 8, vals, bytes);
          // Eager protocol: payload is captured at issue; the request's only
          // use would be local buffer reuse, which the copy already covers.
          mpi::Request req = c.isend(sendbuf.data(), 8 + bytes, dest, 0);
          static_cast<void>(req);
        },
        [&](SolverCore& core) {
          std::vector<std::byte> recvbuf(sendbuf.size());
          std::vector<double> vals(max_sn);
          for (int m = 0; m < plan.expected_x + plan.expected_lsum; ++m) {
            const mpi::RecvInfo info = c.recv(recvbuf.data(), recvbuf.size(),
                                              mpi::kAnySource, mpi::kAnyTag);
            std::int64_t slot64 = 0;
            std::memcpy(&slot64, recvbuf.data(), 8);
            std::memcpy(vals.data(), recvbuf.data() + 8, info.bytes - 8);
            core.on_slot(static_cast<int>(slot64), vals.data());
          }
        });
  });
  return drv.finish(run, simnet::OpKind::kSend);
}

}  // namespace mrl::workloads::sptrsv
