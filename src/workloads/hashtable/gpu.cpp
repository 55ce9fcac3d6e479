// GPU hashtable: NVSHMEM-style atomic compare-and-swap inserts into
// symmetric-heap partitions (Sec III-C). Identical protocol to the
// one-sided MPI variant; message delivery order within a PE pair is FIFO,
// so the node write lands before the tail publish.
#include <algorithm>
#include <cstring>

#include "shmem/shmem.hpp"
#include "workloads/hashtable/hashtable.hpp"

namespace mrl::workloads::hashtable {

Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const Config& cfg0) {
  // Size the overflow heap for the exact worst-case occupancy of the insert
  // stream (grow-only; placement and traffic of fitting runs are unchanged).
  // The symmetric heap below is budgeted from the EFFECTIVE sizes.
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

  shmem::World::Options wopt;
  wopt.heap_bytes =
      (cfg.slots_per_rank * 2 + cfg.overflow_per_rank * 2 + 8) * 8 +
      (1u << 16);

  const auto run = shmem::World::run(
      eng,
      [&](shmem::Ctx& s) {
        auto table = s.allocate<std::uint64_t>(cfg.slots_per_rank);
        auto tail = s.allocate<std::uint64_t>(cfg.slots_per_rank);
        auto next = s.allocate<std::uint64_t>(1);
        auto over = s.allocate<std::uint64_t>(2 * cfg.overflow_per_rank);

        s.barrier_all();
        if (s.pe() == 0) t0 = s.now();

        const std::uint64_t base =
            static_cast<std::uint64_t>(s.pe()) * n_local;
        for (std::uint64_t k = 0; k < n_local; ++k) {
          const std::uint64_t key = key_for(cfg.seed, base + k);
          const Placement pl = place(key, nranks, cfg.slots_per_rank);
          const std::uint64_t old =
              s.atomic_compare_swap(table.at(pl.slot), 0, key, pl.owner);
          if (old == 0) continue;
          ++collisions[static_cast<std::size_t>(s.pe())];
          const std::uint64_t idx = s.atomic_fetch_add(next, 1, pl.owner);
          if (idx >= cfg.overflow_per_rank) {
            // Unreachable for the generated stream (auto-sized above); a
            // hand-built Config degrades to an error status, not an abort.
            exhausted = true;
            continue;
          }
          std::uint64_t guess = 0;
          for (;;) {
            const std::uint64_t node[2] = {key, guess};
            s.put_nbi(over.at(2 * idx), node, 2, pl.owner);
            // FIFO per PE pair orders the node write before the CAS below.
            const std::uint64_t prev_tail = s.atomic_compare_swap(
                tail.at(pl.slot), guess, idx + 1, pl.owner);
            if (prev_tail == guess) break;
            guess = prev_tail;
          }
        }
        s.quiet();

        s.barrier_all();  // applies every in-flight delivery
        if (s.pe() == 0) t1 = s.now();

        // Copy my partition out for host-side verification.
        Partition& mine = parts[static_cast<std::size_t>(s.pe())];
        std::memcpy(mine.table.data(), s.local(table),
                    cfg.slots_per_rank * 8);
        std::memcpy(mine.tail.data(), s.local(tail), cfg.slots_per_rank * 8);
        std::memcpy(mine.overflow.data(), s.local(over),
                    2 * cfg.overflow_per_rank * 8);
        mine.next_free = *s.local(next);
      },
      wopt);

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
