// Zero-allocation guards for the engine (DESIGN.md §10, §12): on a warmed,
// reused engine, Engine::perform, gated waits, MPI RMA put + fence epochs
// and SHMEM put_signal + barrier epochs must not touch the heap, and
// building and running an engine must not allocate per rank. This
// executable counts heap blocks and checks that a run of 10^3 operations
// and a run of 10^4 operations allocate exactly as often — so the count is
// independent of the operation count — and that a 4096-rank engine
// allocates about as often as a 256-rank one, without timing anything.
//
// RMA delivery queues grow with malloc and realloc (util::PodVector), not
// operator new, so the count covers the malloc family wherever the build
// lets it. Sanitizer builds install the runtime's malloc hook, which sees
// every block its allocator hands out, the operator new below included (it
// allocates with malloc). Plain glibc builds interpose malloc, calloc,
// realloc and aligned_alloc over glibc's own. Elsewhere only operator new
// counts (kCountsMalloc is false).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "runtime/engine.hpp"
#include "shmem/shmem.hpp"
#include "simnet/platform.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MRL_ALLOC_SANITIZER_HOOK 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MRL_ALLOC_SANITIZER_HOOK 1
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void count_block() { g_allocations.fetch_add(1, std::memory_order_relaxed); }

}  // namespace

#if defined(MRL_ALLOC_SANITIZER_HOOK)
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));
namespace {
// The runtime installs a hook pair only if both are given.
void on_malloc(const volatile void*, std::size_t) { count_block(); }
void on_free(const volatile void*) {}
const bool kCountsMalloc =
    __sanitizer_install_malloc_and_free_hooks(on_malloc, on_free) != 0;
}  // namespace
#elif defined(__GLIBC__)
extern "C" {
void* __libc_malloc(std::size_t n);
void* __libc_calloc(std::size_t count, std::size_t n);
void* __libc_realloc(void* p, std::size_t n);
void* __libc_memalign(std::size_t align, std::size_t n);

void* malloc(std::size_t n) noexcept {
  count_block();
  return __libc_malloc(n);
}
void* calloc(std::size_t count, std::size_t n) noexcept {
  count_block();
  return __libc_calloc(count, n);
}
void* realloc(void* p, std::size_t n) noexcept {
  count_block();
  return __libc_realloc(p, n);
}
void* aligned_alloc(std::size_t align, std::size_t n) noexcept {
  count_block();
  return __libc_memalign(align, n);
}
}  // extern "C"
namespace {
constexpr bool kCountsMalloc = true;
}  // namespace
#else
namespace {
constexpr bool kCountsMalloc = false;
}  // namespace
#endif

namespace {

void* counted_alloc(std::size_t n, std::size_t align) {
  if (!kCountsMalloc) count_block();
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mrl::runtime {
namespace {

enum class Ops { kPerforms, kGatedWaits };

// Two ranks, `n` operations of one kind each. The wait workload is a
// ping-pong, so every wait parks in a gate channel that drains and is
// recycled per round. The lambdas capture several locals by reference — more than a std::function's
// small buffer holds — as the communication layers' call sites do.
RunResult run_ops(Engine& eng, Ops ops, int n) {
  std::uint64_t ping = 0, pong = 0;
  double t_ping = 0, t_pong = 0;
  std::uint64_t sum = 0;
  const RunResult r = eng.run([&](Rank& rank) {
    const bool first = rank.id() == 0;
    std::uint64_t& mine = first ? ping : pong;
    std::uint64_t& theirs = first ? pong : ping;
    double& t_mine = first ? t_ping : t_pong;
    double& t_theirs = first ? t_pong : t_ping;
    for (int i = 0; i < n; ++i) {
      rank.advance(0.25 + 0.5 * rank.id());
      eng.perform(rank, [&] {
        ++mine;
        t_mine = rank.now();
        sum += mine + theirs;
      });
      if (ops == Ops::kPerforms) continue;
      const auto want = static_cast<std::uint64_t>(i) + 1;
      eng.wait(
          rank, "alloc.gated", WaitGate{&theirs, want},
          [&]() -> std::optional<double> {
            if (theirs < want) return std::nullopt;
            return t_theirs + 1.0;
          },
          [&] { sum += want; });
    }
  });
  EXPECT_GT(sum, 0u);
  return r;
}

std::uint64_t allocations_for(Engine& eng, Ops ops, int n) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult r = run_ops(eng, ops, n);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  return after - before;
}

// The engine configuration users run: heap scheduler, every observer off.
EngineOptions quiet_options() {
  EngineOptions opt;
  opt.scheduler = SchedulerKind::kIndexedHeap;
  opt.trace = false;
  opt.spans = false;
  opt.metrics = false;
  opt.check = false;
  return opt;
}

void expect_allocation_free(Ops ops) {
  Engine eng(simnet::Platform::perlmutter_cpu(), 2, quiet_options());
  // Warm-up: fibers, the ready heap and the gate registry reach their
  // steady-state capacity.
  (void)allocations_for(eng, ops, 10000);
  const std::uint64_t small = allocations_for(eng, ops, 1000);
  const std::uint64_t large = allocations_for(eng, ops, 10000);
  EXPECT_EQ(small, large) << "allocations grow with the operation count";
  // The counter is live: each run still makes its fixed per-run
  // allocations (the body's std::function, the result's clock vector).
  EXPECT_GT(small, 0u);
}

TEST(EngineAllocations, PerformsAllocateNothingPerOperation) {
  expect_allocation_free(Ops::kPerforms);
}

TEST(EngineAllocations, GatedWaitsAllocateNothingPerOperation) {
  expect_allocation_free(Ops::kGatedWaits);
}

// Two ranks, `n` fence epochs of two puts each (a double and a 3-double
// edge, captured: payload capture is on by default) into the other rank's
// window. Each run builds a fresh mpi::World and window, a fixed number of
// allocations per run; the puts and fences themselves must add none.
std::uint64_t put_fence_allocations(Engine& eng, int n) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  double sum = 0;
  const RunResult r = mpi::World::run(eng, [&](mpi::Comm& c) {
    double window[4] = {};
    double edge[3] = {1.0, 2.0, 3.0};
    mpi::WinHandle win = c.create_win(window, sizeof(window));
    const int peer = 1 - c.rank();
    for (int i = 0; i < n; ++i) {
      edge[0] = i;
      win.put(edge, sizeof(double), peer, 0);
      win.put(edge, sizeof(edge), peer, sizeof(double));
      win.fence();
    }
    sum += window[0] + window[3];
  });
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_DOUBLE_EQ(sum, 2.0 * (n - 1 + 3.0));  // the last epoch's bytes landed
  return after - before;
}

TEST(EngineAllocations, PutsAndFencesAllocateNothingPerOperation) {
  Engine eng(simnet::Platform::perlmutter_cpu(), 2, quiet_options());
  (void)put_fence_allocations(eng, 10000);
  const std::uint64_t small = put_fence_allocations(eng, 1000);
  const std::uint64_t large = put_fence_allocations(eng, 10000);
  EXPECT_EQ(small, large) << "allocations grow with the put/fence count";
  EXPECT_GT(small, 0u);
}

// Two PEs, `n` barrier epochs of one captured 3-double put_signal_nbi each
// into the other PE's heap. Each run builds a fresh shmem::World, a fixed
// number of allocations per run; the puts and barriers must add none.
std::uint64_t put_signal_barrier_allocations(Engine& eng, int n) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  double sum = 0;
  shmem::World::Options opt;
  opt.heap_bytes = 4096;
  const RunResult r = shmem::World::run(
      eng,
      [&](shmem::Ctx& s) {
        auto data = s.allocate<double>(3);
        auto sig = s.allocate<std::uint64_t>(1);
        double edge[3] = {1.0, 2.0, 3.0};
        const int peer = 1 - s.pe();
        for (int i = 0; i < n; ++i) {
          edge[0] = i;
          s.put_signal_nbi(data, edge, 3, sig, static_cast<std::uint64_t>(i),
                           peer);
          s.barrier_all();
        }
        sum += s.local(data)[0] + s.local(data)[2];
      },
      opt);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_DOUBLE_EQ(sum, 2.0 * (n - 1 + 3.0));  // the last epoch's bytes landed
  return after - before;
}

TEST(EngineAllocations, PutSignalsAndBarriersAllocateNothingPerOperation) {
  Engine eng(simnet::Platform::perlmutter_gpu(), 2, quiet_options());
  (void)put_signal_barrier_allocations(eng, 10000);
  const std::uint64_t small = put_signal_barrier_allocations(eng, 1000);
  const std::uint64_t large = put_signal_barrier_allocations(eng, 10000);
  EXPECT_EQ(small, large) << "allocations grow with the put/barrier count";
  EXPECT_GT(small, 0u);
}

// Two ranks, one fence epoch in which rank 0 puts `n` timing-only doubles
// into rank 1's window, so rank 1's delivery queue holds n puts at the
// fence. Returns the heap blocks allocated.
std::uint64_t one_epoch_put_allocations(Engine& eng, int n) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult r = mpi::World::run(eng, [&](mpi::Comm& c) {
    c.world().capture_payloads = false;
    double window[8] = {};
    mpi::WinHandle win = c.create_win(window, sizeof(window));
    if (c.rank() == 0) {
      const double v = 1.0;
      for (int i = 0; i < n; ++i) {
        win.put(&v, sizeof(v), 1, sizeof(double) * (i % 8));
      }
    }
    win.fence();
  });
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(EngineAllocations, DeliveryQueueGrowthIsCounted) {
  // The per-operation checks above see queue storage only if the counter
  // covers malloc and realloc: a queue of 10^4 puts in flight grows through
  // more reallocs than one of 10^3, each a block counted.
  if (!kCountsMalloc) GTEST_SKIP() << "this build counts operator new only";
  Engine eng(simnet::Platform::perlmutter_cpu(), 2, quiet_options());
  (void)one_epoch_put_allocations(eng, 10000);
  const std::uint64_t small = one_epoch_put_allocations(eng, 1000);
  const std::uint64_t large = one_epoch_put_allocations(eng, 10000);
  EXPECT_GT(large, small) << "queue growth is invisible to the counter";
}

// Builds a `ranks`-rank engine on `plat`, runs one perform + barrier-style
// gated wait per rank, destroys it, and returns the heap blocks allocated.
std::uint64_t engine_lifetime_allocations(const simnet::Platform& plat,
                                          int ranks) {
  EngineOptions opt = quiet_options();
  opt.fiber_stack_bytes = 16 * 1024;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    Engine eng(plat, ranks, opt);
    std::uint64_t arrived = 0;
    const auto all = static_cast<std::uint64_t>(ranks);
    const RunResult r = eng.run([&](Rank& rank) {
      rank.advance(0.25 * (rank.id() % 3));
      eng.perform(rank, [&] { ++arrived; });
      eng.wait(rank, "alloc.barrier", WaitGate{&arrived, all},
               [&]() -> std::optional<double> {
                 if (arrived < all) return std::nullopt;
                 return rank.now();
               });
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(EngineAllocations, EngineBuildAndRunAllocateNothingPerRank) {
#if !defined(__x86_64__) || defined(MRL_FIBER_FORCE_UCONTEXT)
  GTEST_SKIP() << "the ucontext fiber backend allocates a ucontext_t per fiber";
#endif
  // One platform for both sizes, so copying it into the engine and building
  // its fabric cost the same.
  const simnet::Platform plat = simnet::Platform::perlmutter_cpu(32);
  ASSERT_GE(plat.max_ranks(), 4096);
  // Warm-up: the stack pool carves its slabs and grows its freelist once.
  (void)engine_lifetime_allocations(plat, 4096);
  const std::uint64_t small = engine_lifetime_allocations(plat, 256);
  const std::uint64_t large = engine_lifetime_allocations(plat, 4096);
  EXPECT_LT(large, small + 64)
      << "engine build + run allocates per rank (" << small << " blocks at "
      << "P = 256, " << large << " at P = 4096)";
  EXPECT_GT(small, 0u);
}

}  // namespace
}  // namespace mrl::runtime
