// Modeled-cost collectives: a dissemination-style rendezvous whose completion
// time is max(entry times) + ceil(log2 P) rounds of (2o + L [+ payload]).
// Values are reduced exactly; only the cost is modeled rather than executed
// as a p2p fan-in (documented in DESIGN.md — the paper's workloads use
// collectives only for window fences and end-of-run timing).
#include <cstring>

#include "mpi/comm.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::mpi {

void Comm::barrier() { barrier_kind("barrier"); }

void Comm::barrier_kind(const char* kind) {
  const simnet::LogGP& pp = p2p_params();
  rank_->advance(pp.o_us);
  const double cost =
      rma::rendezvous_rounds(size()) * (2.0 * pp.o_us + pp.L_us);
  collective(cost, 0.0, 0.0, nullptr, 0, check::CollSig{kind, -1, 0});
}

double Comm::allreduce_sum(double v) {
  const simnet::LogGP& pp = p2p_params();
  rank_->advance(pp.o_us);
  const double pair_bw = world_->engine_.platform().pair_peak_gbs(
      0, size() - 1, size());
  const double cost =
      rma::rendezvous_rounds(size()) *
      (2.0 * pp.o_us + pp.L_us + 8.0 * gbs_to_us_per_byte(pair_bw));
  return collective(cost, v, 0.0, nullptr, 0,
                    check::CollSig{"allreduce_sum", -1, 8})
      .sum;
}

double Comm::allreduce_max(double v) {
  const simnet::LogGP& pp = p2p_params();
  rank_->advance(pp.o_us);
  const double pair_bw = world_->engine_.platform().pair_peak_gbs(
      0, size() - 1, size());
  const double cost =
      rma::rendezvous_rounds(size()) *
      (2.0 * pp.o_us + pp.L_us + 8.0 * gbs_to_us_per_byte(pair_bw));
  return collective(cost, 0.0, v, nullptr, 0,
                    check::CollSig{"allreduce_max", -1, 8})
      .max;
}

void Comm::bcast(void* buf, std::uint64_t bytes, int root) {
  MRL_CHECK(root >= 0 && root < size());
  const simnet::LogGP& pp = p2p_params();
  rank_->advance(pp.o_us);
  const double pair_bw = world_->engine_.platform().pair_peak_gbs(
      0, size() - 1, size());
  const double cost =
      rma::rendezvous_rounds(size()) *
      (2.0 * pp.o_us + pp.L_us +
       static_cast<double>(bytes) * gbs_to_us_per_byte(pair_bw));
  const World::CollResult& res =
      collective(cost, 0.0, 0.0, rank() == root ? buf : nullptr, bytes,
                 check::CollSig{"bcast", root, bytes});
  if (rank() != root) {
    MRL_CHECK_MSG(res.payload.size() == bytes, "bcast size mismatch");
    std::memcpy(buf, res.payload.data(), bytes);
  }
}

}  // namespace mrl::mpi
