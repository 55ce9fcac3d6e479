// One-sided SpTRSV: the paper's 4-operation message —
//   MPI_Put(data); MPI_Win_flush; MPI_Put(signal); MPI_Win_flush;
// plus the Listing-1 receiver acknowledgment: scan the whole signal array
// once per expected message, charging per-element poll cost. This is the
// variant whose extra operations and ack scan make it SLOWER than two-sided
// and stop it scaling at high process counts (Fig 8).
#include <algorithm>
#include <cstring>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "workloads/sptrsv/solver_core.hpp"

namespace mrl::workloads::sptrsv {

Result run_one_sided(const simnet::Platform& platform, int nranks,
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
  const std::uint64_t slot_bytes = max_sn * 8;

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    const SolvePlan plan = SolvePlan::build(L, nranks, c.rank());
    const int my_slots = plan.total_slots(c.rank());

    // Window layout: [slots * slot_bytes data][slots * 8 signal words].
    std::vector<std::byte> winmem(
        static_cast<std::size_t>(my_slots) * (slot_bytes + 8), std::byte{0});
    mpi::WinHandle win = c.create_win(winmem.data(), winmem.size());
    auto sig_at = [&](int slot) {
      std::uint64_t v = 0;
      std::memcpy(&v,
                  winmem.data() +
                      static_cast<std::size_t>(my_slots) * slot_bytes +
                      static_cast<std::size_t>(slot) * 8,
                  8);
      return v;
    };

    // The paper's 4-op send: put data, flush, put signal, flush.
    auto send_slot = [&](int dest, int slot, const double* vals, int count) {
      const std::uint64_t dest_slots =
          static_cast<std::uint64_t>(plan.total_slots(dest));
      win.put(vals, static_cast<std::uint64_t>(count) * 8, dest,
              static_cast<std::uint64_t>(slot) * slot_bytes);
      win.flush(dest);
      const std::uint64_t one = 1;
      win.put(&one, 8, dest, dest_slots * slot_bytes +
                                 static_cast<std::uint64_t>(slot) * 8,
              simnet::OpKind::kSignal);
      win.flush(dest);
    };

    SolverCore core(
        L, plan, b, platform,
        [&](int J, const double* xv, int dest) {
          send_slot(dest, plan.x_slot(dest, J), xv, L.sn_size(J));
        },
        [&](int I, const double* sv, int dest) {
          send_slot(dest, plan.lsum_slot(dest, I, c.rank()), sv, L.sn_size(I));
        },
        [&](double us) { c.compute(us); });

    c.barrier();
    if (c.rank() == 0) t0 = c.now();

    core.start();
    // Listing 1: receiver acknowledgment scan.
    const int n_x = static_cast<int>(plan.x_cols[static_cast<std::size_t>(
        c.rank())].size());
    std::vector<std::int8_t> valid(static_cast<std::size_t>(my_slots), 0);
    int recv_count = 0;
    std::vector<double> vals(static_cast<std::size_t>(max_sn));
    while (recv_count < my_slots) {
      bool any = false;
      win.sync();  // make arrived puts visible (MPI_Win_sync)
      // One full pass over the mask array, charged per element — the
      // "extra work to maintain data arrival" of Sec III-B.
      c.compute(cfg.poll_cost_us * my_slots);
      for (int i = 0; i < my_slots; ++i) {
        if (valid[static_cast<std::size_t>(i)] != 0) continue;
        if (sig_at(i) != 1) continue;
        valid[static_cast<std::size_t>(i)] = 1;
        ++recv_count;
        any = true;
        std::memcpy(vals.data(),
                    winmem.data() + static_cast<std::size_t>(i) * slot_bytes,
                    slot_bytes);
        if (i < n_x) {
          core.on_x(plan.x_cols[static_cast<std::size_t>(c.rank())]
                               [static_cast<std::size_t>(i)],
                    vals.data());
        } else {
          const auto& pr = plan.lsum_pairs[static_cast<std::size_t>(c.rank())]
                                          [static_cast<std::size_t>(i - n_x)];
          core.on_lsum(pr.first, vals.data());
        }
      }
      if (!any && recv_count < my_slots) win.wait_any_unapplied();
    }

    c.barrier();
    if (c.rank() == 0) t1 = c.now();
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
  out.msgs = eng.trace().summarize(simnet::OpKind::kPut);
  return out;
}

}  // namespace mrl::workloads::sptrsv
