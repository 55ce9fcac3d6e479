// Two-sided hashtable (Sec III-C): every insert broadcasts an
// (owner, key, pos) triplet to all other ranks with MPI_Isend, then waits
// for P-1 messages with MPI_Recv(ANY_SOURCE, ANY_TAG); the owner applies
// the insert locally. P messages per synchronization, 3 words per message
// (Table II) — this is what makes two-sided ~5x slower at 128 ranks.
#include <algorithm>

#include "mpi/comm.hpp"
#include "workloads/hashtable/driver.hpp"

namespace mrl::workloads::hashtable {

namespace {

/// Applies an insert at its owner `me`.
void local_insert(Driver& drv, int me, std::uint64_t key, std::uint64_t slot) {
  Partition& p = drv.part(me);
  if (p.table[slot] == 0) {
    p.table[slot] = key;
    return;
  }
  drv.collided(me);
  const std::uint64_t idx = p.next_free++;
  if (idx >= drv.cfg().overflow_per_rank) {
    drv.exhausted();
    return;
  }
  p.overflow[2 * idx] = key;
  p.overflow[2 * idx + 1] = p.tail[slot];
  p.tail[slot] = idx + 1;
}

}  // namespace

Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  Driver drv(platform, nranks, cfg);
  const auto run = mpi::World::run(drv.engine(), [&](mpi::Comm& c) {
    const int me = c.rank();
    drv.run(c.rank_ctx(), [&] { c.barrier(); }, [&] {
      const std::uint64_t n_local = drv.n_local();
      std::uint64_t incoming[3];
      // Receives lag the sends by a small window so message latency
      // pipelines behind per-op overhead (nonblocking sends allow rounds in
      // flight).
      constexpr std::uint64_t kLag = 8;
      auto drain_round = [&] {
        for (int m = 0; m + 1 < nranks; ++m) {
          c.recv(incoming, sizeof(incoming), mpi::kAnySource, mpi::kAnyTag);
          if (incoming[0] == static_cast<std::uint64_t>(me)) {
            local_insert(drv, me, incoming[1], incoming[2]);
            c.compute(0.05);
          }
        }
      };
      for (std::uint64_t k = 0; k < n_local; ++k) {
        const auto [key, at] = drv.insert(me, k);
        const std::uint64_t triplet[3] = {static_cast<std::uint64_t>(at.owner),
                                          key, at.slot};
        for (int r = 0; r < nranks; ++r) {
          if (r == me) continue;
          mpi::Request req = c.isend(triplet, sizeof(triplet), r, 0);
          static_cast<void>(req);  // eager: payload captured at issue
        }
        if (at.owner == me) {
          local_insert(drv, me, key, at.slot);
          c.compute(0.05);
        }
        if (k >= kLag) drain_round();
      }
      for (std::uint64_t k = 0; k < std::min(kLag, n_local); ++k) {
        drain_round();
      }
    });
  });
  return drv.finish(run, simnet::OpKind::kSend);
}

}  // namespace mrl::workloads::hashtable
