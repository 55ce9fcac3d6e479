// GPU SpTRSV: NVSHMEM-style — one fused put-with-signal per message and
// nvshmem_wait_until_any in a loop sized by the expected message count
// (Sec III-B). Slot buffers live in the symmetric heap (max slot count
// across PEs keeps allocation symmetric).
#include <algorithm>
#include <cstring>

#include "shmem/shmem.hpp"
#include "workloads/sptrsv/solver_core.hpp"

namespace mrl::workloads::sptrsv {

Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const SupernodalMatrix& L, const Config& cfg) {
  runtime::Engine eng(platform, nranks);

  const std::vector<double> b = L.make_rhs(cfg.rhs_seed);
  const std::vector<double> ref =
      cfg.verify ? reference_solve(L, b) : std::vector<double>{};

  std::vector<double> x_global(static_cast<std::size_t>(L.n()), 0.0);
  double t0 = 0, t1 = 0;

  std::uint64_t max_sn = 0;
  for (int J = 0; J < L.num_supernodes(); ++J) {
    max_sn = std::max(max_sn, static_cast<std::uint64_t>(L.sn_size(J)));
  }
  const std::uint64_t slot_doubles = max_sn;

  // Symmetric allocations must agree across PEs: size by the max slot count.
  std::uint64_t max_slots = 1;
  for (int r = 0; r < nranks; ++r) {
    const SolvePlan p = SolvePlan::build(L, nranks, r);
    max_slots = std::max(max_slots,
                         static_cast<std::uint64_t>(p.total_slots(r)));
  }

  shmem::World::Options wopt;
  wopt.heap_bytes = max_slots * (slot_doubles * 8 + 8) + (1u << 16);

  const auto run = shmem::World::run(
      eng,
      [&](shmem::Ctx& s) {
        const SolvePlan plan = SolvePlan::build(L, nranks, s.pe());
        const int my_slots = plan.total_slots(s.pe());

        auto data = s.allocate<double>(max_slots * slot_doubles);
        auto sig = s.allocate<std::uint64_t>(max_slots);

        auto send_slot = [&](int dest, int slot, const double* vals,
                             int count) {
          s.put_signal_nbi(
              data.at(static_cast<std::uint64_t>(slot) * slot_doubles), vals,
              static_cast<std::uint64_t>(count),
              sig.at(static_cast<std::uint64_t>(slot)), 1, dest);
        };

        SolverCore core(
            L, plan, b, platform,
            [&](int J, const double* xv, int dest) {
              send_slot(dest, plan.x_slot(dest, J), xv, L.sn_size(J));
            },
            [&](int I, const double* sv, int dest) {
              send_slot(dest, plan.lsum_slot(dest, I, s.pe()), sv,
                        L.sn_size(I));
            },
            [&](double us) { s.compute(us); });

        s.barrier_all();
        if (s.pe() == 0) t0 = s.now();

        core.start();
        const int n_x = static_cast<int>(
            plan.x_cols[static_cast<std::size_t>(s.pe())].size());
        std::vector<std::int32_t> status(
            static_cast<std::size_t>(std::max(my_slots, 1)), 0);
        std::vector<double> vals(static_cast<std::size_t>(max_sn));
        for (int m = 0; m < my_slots; ++m) {
          const std::size_t i = s.wait_until_any(
              sig, static_cast<std::size_t>(my_slots), status.data(), 1);
          status[i] = 1;  // mask out, like the paper's validindex[]
          std::memcpy(vals.data(),
                      s.local(data) + i * slot_doubles, slot_doubles * 8);
          if (static_cast<int>(i) < n_x) {
            core.on_x(plan.x_cols[static_cast<std::size_t>(s.pe())][i],
                      vals.data());
          } else {
            const auto& pr =
                plan.lsum_pairs[static_cast<std::size_t>(s.pe())]
                               [i - static_cast<std::size_t>(n_x)];
            core.on_lsum(pr.first, vals.data());
          }
        }
        s.quiet();

        s.barrier_all();
        if (s.pe() == 0) t1 = s.now();
        for (int J : plan.my_diag) {
          const int f = L.sn_first(J);
          for (int i = 0; i < L.sn_size(J); ++i) {
            x_global[static_cast<std::size_t>(f + i)] =
                core.x()[static_cast<std::size_t>(f + i)];
          }
        }
      },
      wopt);

  Result out;
  out.status = run.status;
  out.time_us = t1 - t0;
  out.verified = cfg.verify;
  if (cfg.verify && run.ok()) out.rel_err = relative_error(x_global, ref);
  out.msgs = eng.trace().summarize(simnet::OpKind::kPutSignal);
  return out;
}

}  // namespace mrl::workloads::sptrsv
