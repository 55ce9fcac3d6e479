// One-sided SpTRSV: the paper's 4-operation message —
//   MPI_Put(data); MPI_Win_flush; MPI_Put(signal); MPI_Win_flush;
// plus the Listing-1 receiver acknowledgment: scan the whole signal array
// once per expected message, charging per-element poll cost. This is the
// variant whose extra operations and ack scan make it SLOWER than two-sided
// and stop it scaling at high process counts (Fig 8).
#include <cstring>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "workloads/sptrsv/solver_core.hpp"

namespace mrl::workloads::sptrsv {

Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const SupernodalMatrix& L, const Config& cfg) {
  Driver drv(platform, nranks, L, cfg);
  const auto slot_bytes = static_cast<std::uint64_t>(drv.max_sn()) * 8;

  const auto run = mpi::World::run(drv.engine(), [&](mpi::Comm& c) {
    const SolvePlan plan = drv.plan(c.rank());
    const int my_slots = plan.total_slots(c.rank());

    // Window layout: [slots * slot_bytes data][slots * 8 signal words].
    std::vector<std::byte> winmem(
        static_cast<std::size_t>(my_slots) * (slot_bytes + 8), std::byte{0});
    mpi::WinHandle win = c.create_win(winmem.data(), winmem.size());
    const std::byte* sigs =
        winmem.data() + static_cast<std::size_t>(my_slots) * slot_bytes;
    auto sig_at = [&](int slot) {
      std::uint64_t v = 0;
      std::memcpy(&v, sigs + static_cast<std::size_t>(slot) * 8, 8);
      return v;
    };

    drv.solve(
        c.rank_ctx(), plan, [&] { c.barrier(); },
        [&](int dest, int slot, const double* vals, int count) {
          // The paper's 4-op send: put data, flush, put signal, flush.
          const auto at = static_cast<std::uint64_t>(slot);
          const auto dest_slots =
              static_cast<std::uint64_t>(plan.total_slots(dest));
          win.put(vals, static_cast<std::uint64_t>(count) * 8, dest,
                  at * slot_bytes);
          win.flush(dest);
          const std::uint64_t one = 1;
          win.put(&one, 8, dest, dest_slots * slot_bytes + at * 8,
                  simnet::OpKind::kSignal);
          win.flush(dest);
        },
        [&](SolverCore& core) {
          // Listing 1: receiver acknowledgment scan.
          std::vector<std::int8_t> valid(static_cast<std::size_t>(my_slots), 0);
          int recv_count = 0;
          std::vector<double> vals(static_cast<std::size_t>(drv.max_sn()));
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
                          winmem.data() +
                              static_cast<std::size_t>(i) * slot_bytes,
                          slot_bytes);
              core.on_slot(i, vals.data());
            }
            if (!any && recv_count < my_slots) win.wait_any_unapplied();
          }
        });
  });
  return drv.finish(run, simnet::OpKind::kPut);
}

}  // namespace mrl::workloads::sptrsv
