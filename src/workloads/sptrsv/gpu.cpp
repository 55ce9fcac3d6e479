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
  Driver drv(platform, nranks, L, cfg);
  const auto slot_doubles = static_cast<std::uint64_t>(drv.max_sn());

  // Symmetric allocations must agree across PEs: size by the max slot count.
  // Every plan lists every rank's slots, so one plan gives them all.
  std::uint64_t max_slots = 1;
  const SolvePlan any_plan = drv.plan(0);
  for (int r = 0; r < nranks; ++r) {
    max_slots = std::max(max_slots,
                         static_cast<std::uint64_t>(any_plan.total_slots(r)));
  }

  shmem::World::Options wopt;
  wopt.heap_bytes = max_slots * (slot_doubles * 8 + 8) + (1u << 16);

  const auto run = shmem::World::run(
      drv.engine(),
      [&](shmem::Ctx& s) {
        const SolvePlan plan = drv.plan(s.pe());
        const int my_slots = plan.total_slots(s.pe());

        auto data = s.allocate<double>(max_slots * slot_doubles);
        auto sig = s.allocate<std::uint64_t>(max_slots);

        drv.solve(
            s.rank_ctx(), plan, [&] { s.barrier_all(); },
            [&](int dest, int slot, const double* vals, int count) {
              s.put_signal_nbi(
                  data.at(static_cast<std::uint64_t>(slot) * slot_doubles),
                  vals, static_cast<std::uint64_t>(count),
                  sig.at(static_cast<std::uint64_t>(slot)), 1, dest);
            },
            [&](SolverCore& core) {
              std::vector<std::int32_t> status(
                  static_cast<std::size_t>(std::max(my_slots, 1)), 0);
              std::vector<double> vals(slot_doubles);
              for (int m = 0; m < my_slots; ++m) {
                const std::size_t i = s.wait_until_any(
                    sig, static_cast<std::size_t>(my_slots), status.data(), 1);
                status[i] = 1;  // mask out, like the paper's validindex[]
                std::memcpy(vals.data(), s.local(data) + i * slot_doubles,
                            slot_doubles * 8);
                core.on_slot(static_cast<int>(i), vals.data());
              }
              s.quiet();
            });
      },
      wopt);
  return drv.finish(run, simnet::OpKind::kPutSignal);
}

}  // namespace mrl::workloads::sptrsv
