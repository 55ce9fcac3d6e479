// Two-sided hashtable (Sec III-C): every insert broadcasts an
// (owner, key, pos) triplet to all other ranks with MPI_Isend, then waits
// for P-1 messages with MPI_Recv(ANY_SOURCE, ANY_TAG); the owner applies
// the insert locally. P messages per synchronization, 3 words per message
// (Table II) — this is what makes two-sided ~5x slower at 128 ranks.
#include <algorithm>

#include "mpi/comm.hpp"
#include "workloads/hashtable/hashtable.hpp"

namespace mrl::workloads::hashtable {

namespace {

void local_insert(Partition& p, std::uint64_t key, std::uint64_t slot,
                  std::uint64_t overflow_cap, std::uint64_t* collisions,
                  bool* exhausted) {
  if (p.table[slot] == 0) {
    p.table[slot] = key;
    return;
  }
  ++*collisions;
  const std::uint64_t idx = p.next_free++;
  if (idx >= overflow_cap) {
    // Unreachable for the generated stream (overflow is auto-sized); a
    // hand-built Config degrades to an error status, not an abort.
    *exhausted = true;
    return;
  }
  p.overflow[2 * idx] = key;
  p.overflow[2 * idx + 1] = p.tail[slot];
  p.tail[slot] = idx + 1;
}

}  // namespace

Result run_two_sided(const simnet::Platform& platform, int nranks,
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
    std::uint64_t* my_coll = &collisions[static_cast<std::size_t>(c.rank())];

    c.barrier();
    if (c.rank() == 0) t0 = c.now();

    const std::uint64_t base =
        static_cast<std::uint64_t>(c.rank()) * n_local;
    std::uint64_t triplet[3];
    std::uint64_t incoming[3];
    // Receives lag the sends by a small window so message latency pipelines
    // behind per-op overhead (nonblocking sends allow rounds in flight).
    constexpr std::uint64_t kLag = 8;
    auto drain_round = [&] {
      for (int m = 0; m + 1 < nranks; ++m) {
        c.recv(incoming, sizeof(incoming), mpi::kAnySource, mpi::kAnyTag);
        if (incoming[0] == static_cast<std::uint64_t>(c.rank())) {
          local_insert(mine, incoming[1], incoming[2], cfg.overflow_per_rank,
                       my_coll, &exhausted);
          c.compute(0.05);
        }
      }
    };
    for (std::uint64_t k = 0; k < n_local; ++k) {
      const std::uint64_t key = key_for(cfg.seed, base + k);
      const Placement pl = place(key, nranks, cfg.slots_per_rank);
      triplet[0] = static_cast<std::uint64_t>(pl.owner);
      triplet[1] = key;
      triplet[2] = pl.slot;
      for (int r = 0; r < nranks; ++r) {
        if (r == c.rank()) continue;
        mpi::Request req = c.isend(triplet, sizeof(triplet), r, 0);
        static_cast<void>(req);  // eager: payload captured at issue
      }
      if (pl.owner == c.rank()) {
        local_insert(mine, key, pl.slot, cfg.overflow_per_rank, my_coll,
                     &exhausted);
        c.compute(0.05);
      }
      if (k >= kLag) drain_round();
    }
    for (std::uint64_t k = 0; k < std::min(kLag, n_local); ++k) drain_round();

    c.barrier();
    if (c.rank() == 0) t1 = c.now();
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
  out.msgs = eng.trace().summarize(simnet::OpKind::kSend);
  return out;
}

}  // namespace mrl::workloads::hashtable
