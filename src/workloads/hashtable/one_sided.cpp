// One-sided hashtable: remote CAS inserts over MPI RMA windows (Sec III-C).
// A failed CAS acquires an overflow node by fetch-add and publishes it with
// a second CAS on the bucket tail (lock-free push); MPI_Win_flush_local
// orders the node write before the publish.
#include <algorithm>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "util/units.hpp"
#include "workloads/hashtable/hashtable.hpp"

namespace mrl::workloads::hashtable {

Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg0) {
  // Size the overflow heap for the exact worst-case occupancy of the insert
  // stream (grow-only; placement and traffic of fitting runs are unchanged).
  const Config cfg = with_sized_overflow(cfg0, nranks);
  runtime::Engine eng(platform, nranks);
  bool exhausted = false;

  const std::uint64_t n_local = inserts_per_rank(cfg, nranks);
  const std::uint64_t actual = n_local * static_cast<std::uint64_t>(nranks);

  std::vector<Partition> parts;
  parts.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) parts.emplace_back(cfg);
  std::vector<std::uint64_t> collisions(static_cast<std::size_t>(nranks), 0);
  double t0 = 0, t1 = 0;

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    Partition& mine = parts[static_cast<std::size_t>(c.rank())];
    mpi::WinHandle w_table =
        c.create_win(mine.table.data(), mine.table.size() * 8);
    mpi::WinHandle w_tail =
        c.create_win(mine.tail.data(), mine.tail.size() * 8);
    mpi::WinHandle w_next = c.create_win(&mine.next_free, 8);
    mpi::WinHandle w_over =
        c.create_win(mine.overflow.data(), mine.overflow.size() * 8);

    c.barrier();
    if (c.rank() == 0) t0 = c.now();

    const std::uint64_t base =
        static_cast<std::uint64_t>(c.rank()) * n_local;
    for (std::uint64_t k = 0; k < n_local; ++k) {
      const std::uint64_t key = key_for(cfg.seed, base + k);
      const Placement pl = place(key, nranks, cfg.slots_per_rank);
      const std::uint64_t old =
          w_table.compare_and_swap(0, key, pl.owner, pl.slot * 8);
      if (old == 0) continue;  // won the slot
      ++collisions[static_cast<std::size_t>(c.rank())];
      const std::uint64_t idx = w_next.fetch_add(1, pl.owner, 0);
      if (idx >= cfg.overflow_per_rank) {
        // Unreachable for the generated stream (auto-sized above); a
        // hand-built Config degrades to an error status, not an abort.
        exhausted = true;
        continue;
      }
      std::uint64_t guess = 0;
      for (;;) {
        const std::uint64_t node[2] = {key, guess};
        w_over.put(node, 16, pl.owner, idx * 16);
        w_over.flush_local(pl.owner);
        const std::uint64_t prev_tail =
            w_tail.compare_and_swap(guess, idx + 1, pl.owner, pl.slot * 8);
        if (prev_tail == guess) break;
        guess = prev_tail;  // lost the race: relink and retry
      }
    }
    // End of the insert phase: there was no synchronization until here.
    w_over.flush_all();

    c.barrier();
    if (c.rank() == 0) t1 = c.now();
    // Apply all in-flight overflow-node puts so the host can verify.
    w_over.fence();
  });

  Result out;
  out.status = run.status;
  if (exhausted && out.status.is_ok()) {
    out.status =
        Status(ErrorCode::kResourceExhausted, "overflow heap exhausted");
  }
  out.time_us = t1 - t0;
  out.inserted = actual;
  out.updates_per_sec =
      out.time_us > 0 ? static_cast<double>(actual) / (out.time_us * 1e-6) : 0;
  for (std::uint64_t v : collisions) out.collisions += v;
  out.verified = cfg.verify;
  if (cfg.verify && run.ok() && !exhausted) {
    out.verify_ok = verify_partitions(parts, cfg, actual).is_ok();
  }
  out.msgs = eng.trace().summarize(simnet::OpKind::kAtomic);
  return out;
}

}  // namespace mrl::workloads::hashtable
