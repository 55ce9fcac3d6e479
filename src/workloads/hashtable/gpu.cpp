// GPU hashtable: NVSHMEM-style atomic compare-and-swap inserts into
// symmetric-heap partitions (Sec III-C). Identical protocol to the
// one-sided MPI variant; message delivery order within a PE pair is FIFO,
// so the node write lands before the tail publish.
#include <cstring>

#include "shmem/shmem.hpp"
#include "workloads/hashtable/driver.hpp"

namespace mrl::workloads::hashtable {

Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const Config& cfg0) {
  Driver drv(platform, nranks, cfg0);
  // The symmetric heap is budgeted from the EFFECTIVE (sized) config.
  const Config& cfg = drv.cfg();
  shmem::World::Options wopt;
  wopt.heap_bytes =
      (cfg.slots_per_rank * 2 + cfg.overflow_per_rank * 2 + 8) * 8 +
      (1u << 16);

  const auto run = shmem::World::run(
      drv.engine(),
      [&](shmem::Ctx& s) {
        const int me = s.pe();
        auto table = s.allocate<std::uint64_t>(cfg.slots_per_rank);
        auto tail = s.allocate<std::uint64_t>(cfg.slots_per_rank);
        auto next = s.allocate<std::uint64_t>(1);
        auto over = s.allocate<std::uint64_t>(2 * cfg.overflow_per_rank);

        drv.run(s.rank_ctx(), [&] { s.barrier_all(); }, [&] {
          for (std::uint64_t k = 0; k < drv.n_local(); ++k) {
            const auto [key, at] = drv.insert(me, k);
            const std::uint64_t old =
                s.atomic_compare_swap(table.at(at.slot), 0, key, at.owner);
            if (old == 0) continue;
            drv.collided(me);
            const std::uint64_t idx = s.atomic_fetch_add(next, 1, at.owner);
            if (idx >= cfg.overflow_per_rank) {
              drv.exhausted();
              continue;
            }
            std::uint64_t guess = 0;
            for (;;) {
              const std::uint64_t node[2] = {key, guess};
              s.put_nbi(over.at(2 * idx), node, 2, at.owner);
              // FIFO per PE pair orders the node write before the CAS below.
              const std::uint64_t prev_tail = s.atomic_compare_swap(
                  tail.at(at.slot), guess, idx + 1, at.owner);
              if (prev_tail == guess) break;
              guess = prev_tail;
            }
          }
          s.quiet();
        });  // the closing barrier applies every in-flight delivery

        // Copy my partition out for host-side verification.
        Partition& mine = drv.part(me);
        std::memcpy(mine.table.data(), s.local(table),
                    cfg.slots_per_rank * 8);
        std::memcpy(mine.tail.data(), s.local(tail), cfg.slots_per_rank * 8);
        std::memcpy(mine.overflow.data(), s.local(over),
                    2 * cfg.overflow_per_rank * 8);
        mine.next_free = *s.local(next);
      },
      wopt);
  return drv.finish(run, simnet::OpKind::kAtomic);
}

}  // namespace mrl::workloads::hashtable
