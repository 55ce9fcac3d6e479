// Collective algorithms built on real point-to-point messages (in contrast
// to mpi::Comm's modeled-cost barrier). These are the building blocks of
// NCCL/RCCL-style communication — the paper's stated future work ("AI
// applications using NCCL, RCCL, HCCL") — and double as an ablation of the
// modeled-collective design choice.
//
//   rd_allreduce_sum      — recursive doubling (any P via pre/post folding)
//   ring_allreduce_sum    — bandwidth-optimal 2(P-1)-step chunked ring
//                           (the NCCL algorithm)
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/comm.hpp"
#include "shmem/shmem.hpp"

namespace mrl::coll {

/// Recursive-doubling allreduce (sum) on `count` doubles in place. Handles
/// non-power-of-two P by folding extra ranks into the largest power of two.
void rd_allreduce_sum(mpi::Comm& c, double* data, std::size_t count);

/// Ring allreduce (sum) in place: reduce-scatter + allgather, 2(P-1) steps
/// of count/P-sized chunks — bandwidth optimal for large vectors.
void ring_allreduce_sum(mpi::Comm& c, double* data, std::size_t count);

/// SHMEM ring allreduce (sum) for GPU PEs: chunks move with put-with-signal
/// into a symmetric staging area; signals carry the step number. This is the
/// RCCL/NCCL-style GPU-initiated ring. `data` is PE-local memory of `count`
/// doubles; staging is allocated from the symmetric heap internally (all PEs
/// must call with the same count).
void shmem_ring_allreduce_sum(shmem::Ctx& s, double* data, std::size_t count);

}  // namespace mrl::coll
