#include "shmem/shmem.hpp"

#include "util/status.hpp"

namespace mrl::shmem {

World::World(runtime::Engine& engine, Options opt)
    : engine_(engine),
      opt_(opt),
      npes_(engine.nranks()),
      space_(engine, fifo_last_, "symheap", "shmem.world", "symmetric heap") {
  heap_.reserve(static_cast<std::size_t>(npes_));
  for (int pe = 0; pe < npes_; ++pe) {
    heap_.emplace_back(opt_.heap_bytes);
    space_.region(pe) =
        rma::Space::Region{heap_.back().data(), opt_.heap_bytes};
  }
  fifo_last_.reset(npes_);
}

runtime::RunResult World::run(runtime::Engine& engine,
                              const std::function<void(Ctx&)>& body,
                              Options opt) {
  World world(engine, opt);
  return engine.run([&world, &body](runtime::Rank& rank) {
    Ctx ctx(&world, &rank);
    body(ctx);
  });
}

const simnet::LogGP& Ctx::params() const {
  return world_->engine_.platform().params(simnet::Runtime::kShmem);
}

std::uint64_t Ctx::alloc_bytes(std::uint64_t bytes, std::uint64_t align) {
  // Collective symmetric allocation: the k-th call on every PE returns the
  // same offset. The first PE to reach index k advances the shared bump
  // pointer; the others verify the size and reuse the logged offset.
  std::uint64_t offset = 0;
  const int my_index = allocs_done_++;
  world_->engine_.perform(*rank_, [&] {
    auto& log = world_->alloc_log_;
    if (my_index == static_cast<int>(log.size())) {
      std::uint64_t off = world_->heap_used_;
      off = (off + align - 1) / align * align;
      MRL_CHECK_MSG(
          off + bytes <= world_->opt_.heap_bytes,
          "symmetric heap exhausted (raise World::Options::heap_bytes)");
      world_->heap_used_ = off + bytes;
      log.emplace_back(bytes, off);
    }
    MRL_CHECK_MSG(my_index < static_cast<int>(log.size()),
                  "shmem allocate() calls out of order across PEs");
    const auto& rec = log[static_cast<std::size_t>(my_index)];
    MRL_CHECK_MSG(rec.first == bytes,
                  "asymmetric shmem allocation (PEs disagree on size)");
    offset = rec.second;
  });
  return offset;
}

void Ctx::put_bytes_nbi(std::uint64_t dest_off, const void* src,
                        std::uint64_t bytes, int target_pe,
                        std::uint64_t sig_off, std::uint64_t sig_val,
                        bool has_signal) {
  // ONE operation per message.
  world_->space_.put(
      *rank_, params(), target_pe, dest_off, bytes,
      world_->opt_.capture_payloads ? src : nullptr,
      has_signal ? simnet::OpKind::kPutSignal : simnet::OpKind::kPut,
      has_signal ? sig_off : rma::kNoSignal, sig_val);
}

void Ctx::get_bytes(void* dest, std::uint64_t src_off, std::uint64_t bytes,
                    int target_pe) {
  world_->space_.get(*rank_, params(), target_pe, src_off, bytes, dest);
  // SHMEM gets were never traced (and adding a record would change existing
  // trace/CSV bytes), so they are counted through the metrics-only hook.
  world_->engine_.metrics().on_get(pe(), bytes);
}

void Ctx::wait_local(const char* what, std::uint64_t off, std::uint64_t bytes,
                     util::FunctionRef<bool()> pred) {
  for (bool first = true;; first = false) {
    bool ok = false;
    world_->engine_.perform(*rank_, [&] {
      if (first) world_->space_.note_signal_wait(*rank_, off, bytes);
      world_->space_.apply(pe(), rank_->now());
      ok = pred();
    });
    if (ok) {
      rank_->bump_epoch();
      return;
    }
    world_->space_.wait_delivery(*rank_, what);
  }
}

void Ctx::wait_until(Sym<std::uint64_t> sig, std::uint64_t val) {
  const std::uint64_t* p = local(sig);
  wait_local("shmem.wait_until", sig.offset, 8,
             [p, val] { return *p == val; });
}

std::size_t Ctx::wait_until_any(Sym<std::uint64_t> sigs, std::size_t n,
                                const std::int32_t* status,
                                std::uint64_t val) {
  const std::uint64_t* p = local(sigs);
  std::size_t found = n;
  wait_local("shmem.wait_until_any", sigs.offset, n * 8, [&, p, val] {
    for (std::size_t i = 0; i < n; ++i) {
      if (status != nullptr && status[i] != 0) continue;
      if (p[i] == val) {
        found = i;
        return true;
      }
    }
    return false;
  });
  MRL_CHECK(found < n);
  return found;
}

void Ctx::wait_until_all(Sym<std::uint64_t> sigs, std::size_t n,
                         const std::int32_t* status, std::uint64_t val) {
  const std::uint64_t* p = local(sigs);
  wait_local("shmem.wait_until_all", sigs.offset, n * 8, [&, p, val] {
    for (std::size_t i = 0; i < n; ++i) {
      if (status != nullptr && status[i] != 0) continue;
      if (p[i] != val) return false;
    }
    return true;
  });
}

void Ctx::quiet() {
  world_->space_.complete(*rank_, params().o_us, /*target=*/-1,
                          /*remote=*/true, simnet::SpanKind::kQuiet);
}

std::uint64_t Ctx::atomic_compare_swap(Sym<std::uint64_t> target,
                                       std::uint64_t compare,
                                       std::uint64_t value, int target_pe) {
  return world_->space_.atomic(*rank_, params(), target_pe, target.offset,
                               rma::AtomicOp{value, compare, true});
}

std::uint64_t Ctx::atomic_fetch_add(Sym<std::uint64_t> target,
                                    std::uint64_t add, int target_pe) {
  return world_->space_.atomic(*rank_, params(), target_pe, target.offset,
                               rma::AtomicOp{add, 0, false});
}

void Ctx::barrier_all() {
  // barrier_all implies quiet(): everything lands before it completes.
  world_->space_.sync_all(*rank_, params(), "barrier_all",
                          "shmem.barrier_all");
  world_->engine_.metrics().on_collective(pe());
}

}  // namespace mrl::shmem
