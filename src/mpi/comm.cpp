#include "mpi/comm.hpp"

#include <algorithm>
#include <cmath>

#include "mpi/win.hpp"
#include "util/status.hpp"

namespace mrl::mpi {

World::World(runtime::Engine& engine)
    : engine_(engine), nranks_(engine.nranks()) {
  mailbox_.resize(static_cast<std::size_t>(nranks_));
  inbox_pushes_.resize(static_cast<std::size_t>(nranks_), 0);
  fifo_last_.reset(nranks_);
  fifo_seq_.reset(nranks_);
}

runtime::RunResult World::run(runtime::Engine& engine,
                              const std::function<void(Comm&)>& body) {
  World world(engine);
  return engine.run([&world, &body](runtime::Rank& rank) {
    Comm comm(&world, &rank);
    body(comm);
  });
}

const simnet::LogGP& Comm::p2p_params() const {
  return world_->engine_.platform().params(simnet::Runtime::kTwoSidedMpi);
}

const simnet::LogGP& Comm::rma_params() const {
  return world_->engine_.platform().params(simnet::Runtime::kOneSidedMpi);
}

WinHandle Comm::create_win(void* base, std::uint64_t bytes) {
  const int idx = wins_created_++;
  Win* win = nullptr;
  world_->engine_.perform(*rank_, [&] {
    if (static_cast<std::size_t>(idx) >= world_->windows_.size()) {
      world_->windows_.push_back(std::make_unique<Win>(world_, idx));
    }
    win = world_->windows_[static_cast<std::size_t>(idx)].get();
    win->space_.region(rank()) =
        rma::Space::Region{static_cast<std::byte*>(base), bytes};
    // The first rank to expose registers the window with the checker.
    win->space_.register_checker();
  });
  // Window is usable only after everyone exposed their region. Tagged
  // distinctly so a create_win on one rank cannot silently pair with a
  // user barrier on another.
  barrier_kind("win.create");
  return WinHandle(win, this);
}

const World::CollResult& Comm::collective(double cost_us, double sum_contrib,
                                          double max_contrib,
                                          const void* payload,
                                          std::uint64_t payload_bytes,
                                          const check::CollSig& sig) {
  auto& rv = world_->coll_;
  std::uint64_t my_gen = 0;
  world_->engine_.perform(*rank_, [&] {
    auto& chk = world_->engine_.checker();
    if (chk.enabled()) {
      if (world_->chk_chan_ < 0) {
        world_->chk_chan_ = chk.add_channel("mpi.world");
      }
      const check::CollEnter ce = chk.on_collective_enter(
          world_->chk_chan_, rank(), sig, rank_->now());
      if (!ce.ok) {
        // Mismatched collectives abort immediately: letting the kind-blind
        // rendezvous below pair them would deadlock or corrupt payloads.
        world_->engine_.abort_run(*rank_, ErrorCode::kFailedPrecondition,
                                  chk.report());
      }
    }
    World::CollResult& acc = rv.acc();
    acc.sum += sum_contrib;
    acc.max = std::max(acc.max, max_contrib);
    if (payload != nullptr && payload_bytes > 0) {
      const auto* p = static_cast<const std::byte*>(payload);
      acc.payload.assign(p, p + payload_bytes);
    }
    my_gen = rv.enter(world_->nranks_, rank_->now(),
                      [&](simnet::TimeUs max_enter) {
                        return max_enter + cost_us;
                      });
  });
  const World::CollResult& res =
      rv.wait(world_->engine_, *rank_, "collective", my_gen);
  auto& chk = world_->engine_.checker();
  if (chk.enabled() && world_->chk_chan_ >= 0) {
    chk.on_collective_complete(world_->chk_chan_, rank(), my_gen);
  }
  rank_->bump_epoch();
  world_->engine_.metrics().on_collective(rank());
  return res;
}

}  // namespace mrl::mpi
