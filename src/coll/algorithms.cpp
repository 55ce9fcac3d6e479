#include "coll/algorithms.hpp"

#include <cstring>

#include "util/status.hpp"

namespace mrl::coll {

namespace {
constexpr int kTagRd = 9003;
constexpr int kTagRingRs = 9004;  // reduce-scatter phase
constexpr int kTagRingAg = 9005;  // allgather phase
}  // namespace

void rd_allreduce_sum(mpi::Comm& c, double* data, std::size_t count) {
  const int p = c.size();
  if (p == 1) return;
  const std::uint64_t bytes = count * sizeof(double);
  std::vector<double> incoming(count);

  // Fold ranks above the largest power of two into partners below it.
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;
  int vrank;  // virtual rank inside the power-of-two group, -1 if folded out
  if (c.rank() < 2 * rem) {
    if (c.rank() % 2 == 0) {
      // Evens send their data to the odd partner and drop out.
      c.send(data, bytes, c.rank() + 1, kTagRd);
      vrank = -1;
    } else {
      c.recv(incoming.data(), bytes, c.rank() - 1, kTagRd);
      for (std::size_t i = 0; i < count; ++i) data[i] += incoming[i];
      vrank = c.rank() / 2;
    }
  } else {
    vrank = c.rank() - rem;
  }

  if (vrank != -1) {
    for (int mask = 1; mask < pof2; mask *= 2) {
      const int vpartner = vrank ^ mask;
      // Map virtual rank back to a real rank.
      const int partner =
          vpartner < rem ? vpartner * 2 + 1 : vpartner + rem;
      mpi::Request sreq = c.isend(data, bytes, partner, kTagRd);
      c.recv(incoming.data(), bytes, partner, kTagRd);
      c.wait(sreq);
      for (std::size_t i = 0; i < count; ++i) data[i] += incoming[i];
    }
  }

  // Unfold: odds return the result to their even partner.
  if (c.rank() < 2 * rem) {
    if (c.rank() % 2 == 1) {
      c.send(data, bytes, c.rank() - 1, kTagRd);
    } else {
      c.recv(data, bytes, c.rank() + 1, kTagRd);
    }
  }
}

void ring_allreduce_sum(mpi::Comm& c, double* data, std::size_t count) {
  const int p = c.size();
  if (p == 1) return;
  MRL_CHECK_MSG(count >= static_cast<std::size_t>(p),
                "ring allreduce needs count >= nranks");
  const int right = (c.rank() + 1) % p;
  const int left = (c.rank() - 1 + p) % p;

  auto chunk_begin = [&](int idx) {
    return count * static_cast<std::size_t>((idx % p + p) % p) /
           static_cast<std::size_t>(p);
  };
  auto chunk_len = [&](int idx) {
    const int k = (idx % p + p) % p;
    return count * static_cast<std::size_t>(k + 1) /
               static_cast<std::size_t>(p) -
           chunk_begin(k);
  };
  std::vector<double> incoming(chunk_len(p - 1) + count / p + 2);

  // Reduce-scatter: after step s, rank r owns the full sum of chunk
  // (r - s - 1); chunks travel rightward accumulating.
  for (int s = 0; s < p - 1; ++s) {
    const int send_idx = c.rank() - s;
    const int recv_idx = c.rank() - s - 1;
    mpi::Request sreq =
        c.isend(data + chunk_begin(send_idx),
                chunk_len(send_idx) * sizeof(double), right, kTagRingRs);
    const mpi::RecvInfo info = c.recv(
        incoming.data(), incoming.size() * sizeof(double), left, kTagRingRs);
    MRL_CHECK(info.bytes == chunk_len(recv_idx) * sizeof(double));
    double* dst = data + chunk_begin(recv_idx);
    for (std::size_t i = 0; i < chunk_len(recv_idx); ++i) {
      dst[i] += incoming[i];
    }
    c.wait(sreq);
  }
  // Allgather: fully-reduced chunks circulate once more.
  for (int s = 0; s < p - 1; ++s) {
    const int send_idx = c.rank() + 1 - s;
    const int recv_idx = c.rank() - s;
    mpi::Request sreq =
        c.isend(data + chunk_begin(send_idx),
                chunk_len(send_idx) * sizeof(double), right, kTagRingAg);
    const mpi::RecvInfo info = c.recv(
        incoming.data(), incoming.size() * sizeof(double), left, kTagRingAg);
    MRL_CHECK(info.bytes == chunk_len(recv_idx) * sizeof(double));
    std::memcpy(data + chunk_begin(recv_idx), incoming.data(), info.bytes);
    c.wait(sreq);
  }
}

void shmem_ring_allreduce_sum(shmem::Ctx& s, double* data, std::size_t count) {
  const int p = s.n_pes();
  if (p == 1) return;
  MRL_CHECK_MSG(count >= static_cast<std::size_t>(p),
                "ring allreduce needs count >= npes");
  const int right = (s.pe() + 1) % p;

  auto chunk_begin = [&](int idx) {
    return count * static_cast<std::size_t>((idx % p + p) % p) /
           static_cast<std::size_t>(p);
  };
  auto chunk_len = [&](int idx) {
    const int k = (idx % p + p) % p;
    return count * static_cast<std::size_t>(k + 1) /
               static_cast<std::size_t>(p) -
           chunk_begin(k);
  };

  // Symmetric staging: one slot per step (2(P-1) steps), plus signals.
  const std::size_t max_chunk = count / static_cast<std::size_t>(p) + 1;
  const std::size_t steps = 2 * static_cast<std::size_t>(p - 1);
  auto stage = s.allocate<double>(steps * max_chunk);
  auto sig = s.allocate<std::uint64_t>(steps);
  s.barrier_all();  // staging visible everywhere before first put

  for (std::size_t step = 0; step < steps; ++step) {
    const bool rs_phase = step < static_cast<std::size_t>(p - 1);
    const int sidx = static_cast<int>(rs_phase ? step : step - (p - 1));
    const int send_idx = rs_phase ? s.pe() - sidx : s.pe() + 1 - sidx;
    const int recv_idx = send_idx - 1;
    s.put_signal_nbi(stage.at(step * max_chunk),
                     data + chunk_begin(send_idx), chunk_len(send_idx),
                     sig.at(step), 1, right);
    s.wait_until(sig.at(step), 1);
    const double* in = s.local(stage) + step * max_chunk;
    double* dst = data + chunk_begin(recv_idx);
    if (rs_phase) {
      for (std::size_t i = 0; i < chunk_len(recv_idx); ++i) dst[i] += in[i];
    } else {
      std::memcpy(dst, in, chunk_len(recv_idx) * sizeof(double));
    }
  }
  s.quiet();
  s.barrier_all();
}

}  // namespace mrl::coll
