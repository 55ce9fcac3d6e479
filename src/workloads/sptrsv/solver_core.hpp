// What the three SpTRSV variants share: the DAG execution core (SolverCore)
// and the driver around it (Driver). Communication is injected through
// hooks, so the same dependency/accumulation logic, right-hand side, timed
// region and verification serve two-sided MPI, 4-op one-sided MPI and SHMEM
// put-with-signal; a variant keeps only its exposure, its sends and its
// receive loop.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "runtime/engine.hpp"
#include "util/function_ref.hpp"
#include "util/status.hpp"
#include "workloads/sptrsv/kernels.hpp"
#include "workloads/sptrsv/sptrsv.hpp"

namespace mrl::workloads::sptrsv {

class SolverCore {
 public:
  /// send(dest, slot, vals, count): delivers `count` values into receive
  /// slot `slot` of rank `dest` (SolvePlan::x_slot / lsum_slot).
  using SendFn = util::FunctionRef<void(int dest, int slot,
                                        const double* vals, int count)>;
  /// charge(us): accounts `us` of compute virtual time.
  using ChargeFn = util::FunctionRef<void(double us)>;

  /// The hooks' targets must outlive the core.
  SolverCore(const SupernodalMatrix& L, const SolvePlan& plan,
             const std::vector<double>& b, const simnet::Platform& platform,
             SendFn send, ChargeFn charge)
      : L_(L),
        plan_(plan),
        platform_(platform),
        send_(send),
        charge_(charge),
        row_remaining_(plan.row_remaining),
        deps_(plan.deps),
        x_(static_cast<std::size_t>(L.n()), 0.0),
        acc_(static_cast<std::size_t>(L.n()), 0.0) {
    // Diagonal owners start from the right-hand side.
    for (int J : plan_.my_diag) {
      const int f = L_.sn_first(J);
      for (int i = 0; i < L_.sn_size(J); ++i) {
        x_[static_cast<std::size_t>(f + i)] = b[static_cast<std::size_t>(f + i)];
      }
    }
  }

  /// Solves every initially-ready supernode (no incoming dependencies).
  void start() {
    for (int J : plan_.my_diag) {
      if (deps_[static_cast<std::size_t>(J)] == 0) ready_.push_back(J);
    }
    drain();
  }

  /// Handles the message that landed in my receive slot `slot`: x_J of a
  /// column I hold blocks in (the first x_cols slots), or a partial sum for
  /// a row whose diagonal I own.
  void on_slot(int slot, const double* vals) {
    const auto me = static_cast<std::size_t>(plan_.me);
    const auto i = static_cast<std::size_t>(slot);
    const std::vector<int>& x_cols = plan_.x_cols[me];
    if (i < x_cols.size()) {
      process_column(x_cols[i], vals);
    } else {
      const int I = plan_.lsum_pairs[me][i - x_cols.size()].first;
      const int f = L_.sn_first(I);
      for (int k = 0; k < L_.sn_size(I); ++k) {
        x_[static_cast<std::size_t>(f + k)] -= vals[k];
      }
      complete_dep(I);
    }
    drain();
  }

  /// Solution vector; only segments of supernodes whose diagonal I own are
  /// meaningful.
  [[nodiscard]] const std::vector<double>& x() const { return x_; }

 private:
  void drain() {
    while (!ready_.empty()) {
      const int J = ready_.front();
      ready_.pop_front();
      solve_and_fanout(J);
    }
  }

  void complete_dep(int I) {
    int& d = deps_[static_cast<std::size_t>(I)];
    MRL_CHECK(d > 0);
    if (--d == 0) ready_.push_back(I);
  }

  void solve_and_fanout(int J) {
    const int f = L_.sn_first(J);
    const int cj = L_.sn_size(J);
    detail::trsv_lower(L_.diag(J), x_.data() + f, cj);
    charge_(kernel_time_us(platform_, static_cast<double>(cj) * cj));
    for (int dest : plan_.fanout[static_cast<std::size_t>(J)]) {
      send_(dest, plan_.x_slot(dest, J), x_.data() + f, cj);
    }
    process_column(J, x_.data() + f);  // my own blocks in column J
  }

  void process_column(int J, const double* xvals) {
    for (int idx : plan_.col_blocks[static_cast<std::size_t>(J)]) {
      const SolvePlan::LocalBlock& lb =
          plan_.my_blocks[static_cast<std::size_t>(idx)];
      const int rows = L_.sn_size(lb.I);
      const int fI = L_.sn_first(lb.I);
      // acc -= L_IJ * x_J, so acc holds the negated sum and the row's
      // contribution to x_I is +acc (x_I -= sum == x_I += acc).
      detail::gemv_sub(lb.block->vals, xvals, acc_.data() + fI, rows,
                       L_.sn_size(J));
      charge_(kernel_time_us(platform_,
                             2.0 * rows * static_cast<double>(L_.sn_size(J))));
      int& rem = row_remaining_[static_cast<std::size_t>(lb.I)];
      MRL_CHECK(rem > 0);
      if (--rem == 0) {
        const int d = plan_.grid.owner(lb.I, lb.I);
        if (d == plan_.me) {
          // Local contribution: x_I += acc_I (acc is the negated sum).
          for (int i = 0; i < rows; ++i) {
            x_[static_cast<std::size_t>(fI + i)] +=
                acc_[static_cast<std::size_t>(fI + i)];
          }
          complete_dep(lb.I);
        } else {
          // Remote: send the positive partial sum (receiver subtracts).
          lsum_buf_.assign(static_cast<std::size_t>(rows), 0.0);
          for (int i = 0; i < rows; ++i) {
            lsum_buf_[static_cast<std::size_t>(i)] =
                -acc_[static_cast<std::size_t>(fI + i)];
          }
          send_(d, plan_.lsum_slot(d, lb.I, plan_.me), lsum_buf_.data(),
                rows);
        }
      }
    }
  }

  const SupernodalMatrix& L_;
  const SolvePlan& plan_;
  const simnet::Platform& platform_;
  SendFn send_;
  ChargeFn charge_;
  std::vector<int> row_remaining_;
  std::vector<int> deps_;
  std::vector<double> x_;
  std::vector<double> acc_;
  std::vector<double> lsum_buf_;
  std::deque<int> ready_;
};

/// Everything but the communication. A variant runs its world on engine(),
/// builds each rank's plan(), exposes its receive slots (an MPI window, the
/// symmetric heap, or nothing) and calls solve() with its barrier, its send
/// and its receive loop; finish() assembles the Result.
class Driver {
 public:
  using BarrierFn = util::FunctionRef<void()>;
  /// Receives every message the rank expects, handing each to
  /// SolverCore::on_slot.
  using ReceiveFn = util::FunctionRef<void(SolverCore& core)>;

  Driver(const simnet::Platform& platform, int nranks,
         const SupernodalMatrix& L, const Config& cfg)
      : platform_(platform),
        L_(L),
        cfg_(cfg),
        nranks_(nranks),
        eng_(platform, nranks),
        b_(L.make_rhs(cfg.rhs_seed)),
        ref_(cfg.verify ? reference_solve(L, b_) : std::vector<double>{}),
        x_(static_cast<std::size_t>(L.n()), 0.0) {
    for (int J = 0; J < L.num_supernodes(); ++J) {
      max_sn_ = std::max(max_sn_, L.sn_size(J));
    }
  }

  [[nodiscard]] runtime::Engine& engine() { return eng_; }
  /// The largest supernode: the longest message, in doubles.
  [[nodiscard]] int max_sn() const { return max_sn_; }
  [[nodiscard]] SolvePlan plan(int rank) const {
    return SolvePlan::build(L_, nranks_, rank);
  }

  /// Rank `r`'s solve: barrier, start the core, receive, barrier; then
  /// publish the segments whose diagonal the rank owns.
  void solve(runtime::Rank& r, const SolvePlan& plan, BarrierFn barrier,
             SolverCore::SendFn send, ReceiveFn receive) {
    // Charged as Comm::compute / Ctx::compute do: us * compute_scale().
    auto charge = [&r](double us) { r.advance(us * r.compute_scale()); };
    SolverCore core(L_, plan, b_, platform_, send, charge);
    barrier();
    if (r.id() == 0) t0_ = r.now();
    core.start();
    receive(core);
    barrier();
    if (r.id() == 0) t1_ = r.now();
    // Ranks own disjoint segments.
    for (int J : plan.my_diag) {
      const auto f = static_cast<std::size_t>(L_.sn_first(J));
      std::copy_n(core.x().begin() + static_cast<std::ptrdiff_t>(f),
                  L_.sn_size(J), x_.begin() + static_cast<std::ptrdiff_t>(f));
    }
  }

  /// The Result of `run`; its message stats count `data` records.
  Result finish(const runtime::RunResult& run, simnet::OpKind data) {
    Result out;
    out.status = run.status;
    out.time_us = t1_ - t0_;
    out.verified = cfg_.verify && run.ok();
    if (out.verified) out.rel_err = relative_error(x_, ref_);
    out.msgs = eng_.trace().summarize(data);
    return out;
  }

 private:
  const simnet::Platform& platform_;
  const SupernodalMatrix& L_;
  const Config& cfg_;
  const int nranks_;
  runtime::Engine eng_;
  const std::vector<double> b_;
  const std::vector<double> ref_;
  std::vector<double> x_;  ///< the published solution
  int max_sn_ = 0;
  double t0_ = 0, t1_ = 0;
};

}  // namespace mrl::workloads::sptrsv
