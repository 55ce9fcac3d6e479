#include "mpi/comm.hpp"

#include "mpi/win.hpp"

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

void Comm::barrier() { barrier_kind("barrier"); }

void Comm::barrier_kind(const char* kind) {
  runtime::Engine& eng = world_->engine_;
  world_->barrier_.join(eng, *rank_, p2p_params(), kind, "collective", [&] {
    if (world_->chk_chan_ < 0) {
      world_->chk_chan_ = eng.checker().add_channel("mpi.world");
    }
    return world_->chk_chan_;
  });
  eng.metrics().on_collective(rank());
}

}  // namespace mrl::mpi
