// Two-sided SpTRSV: MPI_Isend for x fan-out and partial sums; a
// MPI_Recv(ANY_SOURCE) loop sized by the precomputed expected message count
// (the paper's baseline, Sec III-B).
#include <cstring>

#include "mpi/comm.hpp"
#include "workloads/sptrsv/solver_core.hpp"

namespace mrl::workloads::sptrsv {

namespace {
constexpr int kTagX = 0;
constexpr int kTagLsum = 1;
}  // namespace

Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const SupernodalMatrix& L, const Config& cfg) {
  runtime::Engine eng(platform, nranks);

  const std::vector<double> b = L.make_rhs(cfg.rhs_seed);
  const std::vector<double> ref =
      cfg.verify ? reference_solve(L, b) : std::vector<double>{};

  std::vector<double> x_global(static_cast<std::size_t>(L.n()), 0.0);
  double t0 = 0, t1 = 0;

  int max_sn = 0;
  for (int J = 0; J < L.num_supernodes(); ++J) {
    max_sn = std::max(max_sn, L.sn_size(J));
  }

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    const SolvePlan plan = SolvePlan::build(L, nranks, c.rank());
    std::vector<std::byte> sendbuf(8 + static_cast<std::size_t>(max_sn) * 8);
    auto send_msg = [&](int id, const double* vals, int count, int dest,
                        int tag) {
      const std::int64_t id64 = id;
      std::memcpy(sendbuf.data(), &id64, 8);
      std::memcpy(sendbuf.data() + 8, vals,
                  static_cast<std::size_t>(count) * 8);
      // Eager protocol: payload is captured at issue; the request's only
      // use would be local buffer reuse, which the copy already covers.
      mpi::Request req = c.isend(
          sendbuf.data(), 8 + static_cast<std::size_t>(count) * 8, dest, tag);
      static_cast<void>(req);
    };

    SolverCore core(
        L, plan, b, platform,
        [&](int J, const double* xv, int dest) {
          send_msg(J, xv, L.sn_size(J), dest, kTagX);
        },
        [&](int I, const double* sv, int dest) {
          send_msg(I, sv, L.sn_size(I), dest, kTagLsum);
        },
        [&](double us) { c.compute(us); });

    c.barrier();
    if (c.rank() == 0) t0 = c.now();

    core.start();
    std::vector<std::byte> recvbuf(sendbuf.size());
    std::vector<double> vals(static_cast<std::size_t>(max_sn));
    for (int m = 0; m < plan.expected_x + plan.expected_lsum; ++m) {
      const mpi::RecvInfo info =
          c.recv(recvbuf.data(), recvbuf.size(), mpi::kAnySource, mpi::kAnyTag);
      std::int64_t id64 = 0;
      std::memcpy(&id64, recvbuf.data(), 8);
      std::memcpy(vals.data(), recvbuf.data() + 8, info.bytes - 8);
      if (info.tag == kTagX) {
        core.on_x(static_cast<int>(id64), vals.data());
      } else {
        core.on_lsum(static_cast<int>(id64), vals.data());
      }
    }

    c.barrier();
    if (c.rank() == 0) t1 = c.now();
    // Publish my solved segments (ranks own disjoint segments).
    for (int J : plan.my_diag) {
      const int f = L.sn_first(J);
      for (int i = 0; i < L.sn_size(J); ++i) {
        x_global[static_cast<std::size_t>(f + i)] =
            core.x()[static_cast<std::size_t>(f + i)];
      }
    }
  });

  Result out;
  out.status = run.status;
  out.time_us = t1 - t0;
  out.verified = cfg.verify;
  if (cfg.verify && run.ok()) out.rel_err = relative_error(x_global, ref);
  out.msgs = eng.trace().summarize(simnet::OpKind::kSend);
  return out;
}

}  // namespace mrl::workloads::sptrsv
