// The iteration loop the four stencil variants share. Internal to the
// workload: callers use the run_* functions.
#pragma once

#include <algorithm>
#include <vector>

#include "runtime/engine.hpp"
#include "util/function_ref.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl::workloads::stencil {

/// Everything but the halo exchange. A variant runs its world on engine(),
/// builds each rank's LocalBlock from decomp(), exposes its incoming halos
/// (an MPI window, the symmetric heap, or nothing) and calls run() with its
/// barrier and its exchange; finish() assembles the Result.
class Driver {
 public:
  using BarrierFn = util::FunctionRef<void()>;
  /// Brings the block's incoming halos up to date for iteration `it`.
  using ExchangeFn = util::FunctionRef<void(int it)>;

  Driver(const simnet::Platform& platform, int nranks, const Config& cfg)
      : platform_(platform),
        cfg_(cfg),
        nranks_(nranks),
        eng_(platform, nranks),
        reference_(cfg.verify ? serial_reference(cfg) : std::vector<double>{}),
        errs_(static_cast<std::size_t>(nranks), 0.0) {
    if (px_ <= 0 || py_ <= 0) choose_grid(nranks, &px_, &py_);
  }

  [[nodiscard]] runtime::Engine& engine() { return eng_; }
  [[nodiscard]] int px() const { return px_; }
  [[nodiscard]] int py() const { return py_; }
  [[nodiscard]] Decomp decomp(int rank) const {
    return make_decomp(cfg_.n, nranks_, rank, px_, py_);
  }

  /// Rank `r`'s timed region: barrier, cfg.iters iterations of pack ->
  /// exchange -> sweep -> compute charge, barrier; then the comparison
  /// against the serial reference.
  void run(runtime::Rank& r, LocalBlock& blk, BarrierFn barrier,
           ExchangeFn exchange) {
    const Decomp& d = blk.decomp();
    // Charged as Comm::compute / Ctx::compute do: us * compute_scale().
    const double sweep_us =
        sweep_time_us(platform_, blk.sweep_bytes(),
                      static_cast<std::uint64_t>(d.w()) *
                          static_cast<std::uint64_t>(d.h())) *
        r.compute_scale();
    barrier();
    if (r.id() == 0) t0_ = r.now();
    for (int it = 0; it < cfg_.iters; ++it) {
      blk.pack_edges();
      exchange(it);
      blk.sweep();
      r.advance(sweep_us);
    }
    barrier();
    if (r.id() == 0) t1_ = r.now();
    if (cfg_.verify) {
      errs_[static_cast<std::size_t>(r.id())] =
          blk.compare(reference_, cfg_.n);
    }
  }

  /// The Result of `run`; its message stats count `data` records.
  Result finish(const runtime::RunResult& run, simnet::OpKind data) {
    Result out;
    out.status = run.status;
    out.time_us = t1_ - t0_;
    out.verified = cfg_.verify && run.ok();
    out.max_abs_err = *std::max_element(errs_.begin(), errs_.end());
    out.msgs = eng_.trace().summarize(data);
    if (eng_.metrics().enabled()) out.metrics = eng_.metrics_report();
    return out;
  }

 private:
  const simnet::Platform& platform_;
  const Config& cfg_;
  const int nranks_;
  int px_ = cfg_.px, py_ = cfg_.py;  ///< process grid
  runtime::Engine eng_;
  const std::vector<double> reference_;
  std::vector<double> errs_;  ///< per rank
  double t0_ = 0, t1_ = 0;
};

}  // namespace mrl::workloads::stencil
