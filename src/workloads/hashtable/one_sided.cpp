// One-sided hashtable: remote CAS inserts over MPI RMA windows (Sec III-C).
// A failed CAS acquires an overflow node by fetch-add and publishes it with
// a second CAS on the bucket tail (lock-free push); MPI_Win_flush_local
// orders the node write before the publish.
#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "workloads/hashtable/driver.hpp"

namespace mrl::workloads::hashtable {

Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  Driver drv(platform, nranks, cfg);
  const auto run = mpi::World::run(drv.engine(), [&](mpi::Comm& c) {
    const int me = c.rank();
    Partition& mine = drv.part(me);
    mpi::WinHandle w_table =
        c.create_win(mine.table.data(), mine.table.size() * 8);
    mpi::WinHandle w_tail =
        c.create_win(mine.tail.data(), mine.tail.size() * 8);
    mpi::WinHandle w_next = c.create_win(&mine.next_free, 8);
    mpi::WinHandle w_over =
        c.create_win(mine.overflow.data(), mine.overflow.size() * 8);

    drv.run(c.rank_ctx(), [&] { c.barrier(); }, [&] {
      for (std::uint64_t k = 0; k < drv.n_local(); ++k) {
        const auto [key, at] = drv.insert(me, k);
        const std::uint64_t old =
            w_table.compare_and_swap(0, key, at.owner, at.slot * 8);
        if (old == 0) continue;  // won the slot
        drv.collided(me);
        const std::uint64_t idx = w_next.fetch_add(1, at.owner, 0);
        if (idx >= drv.cfg().overflow_per_rank) {
          drv.exhausted();
          continue;
        }
        std::uint64_t guess = 0;
        for (;;) {
          const std::uint64_t node[2] = {key, guess};
          w_over.put(node, 16, at.owner, idx * 16);
          w_over.flush_local(at.owner);
          const std::uint64_t prev_tail =
              w_tail.compare_and_swap(guess, idx + 1, at.owner, at.slot * 8);
          if (prev_tail == guess) break;
          guess = prev_tail;  // lost the race: relink and retry
        }
      }
      // End of the insert phase: there was no synchronization until here.
      w_over.flush_all();
    });
    // Apply all in-flight overflow-node puts so the host can verify.
    w_over.fence();
  });
  return drv.finish(run, simnet::OpKind::kAtomic);
}

}  // namespace mrl::workloads::hashtable
