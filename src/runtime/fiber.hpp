// Stackful user-level fibers for the engine's cooperative rank scheduler.
//
// One Fiber is one suspended call stack. switch_to() transfers control from
// the currently executing context to another entirely in user space: on
// x86-64 it is a hand-rolled callee-saved-register swap (tens of
// nanoseconds, no mutex, no condvar, no kernel involvement — not even the
// sigprocmask syscall swapcontext() performs); on other architectures it
// falls back to POSIX swapcontext().
//
// Every fiber stack is a slot carved out of a process-wide pooled slab
// (StackPool, DESIGN.md §12): one large mmap hosts many equally sized slots,
// and a destroyed fiber returns its slot to a freelist for reuse. One slab
// is one kernel VMA however many fibers it hosts, so million-fiber engines
// stay far from the vm.max_map_count (~65k) cap, and repeated engine
// construction recycles already-faulted pages instead of paying mmap/munmap
// churn. Slots are unguarded (adjacent slots abut); the stack
// high-water-mark sentinel (poison_stack) audits headroom instead.
//
// Sanitizer support:
//   * AddressSanitizer — every switch is bracketed with
//     __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so
//     ASan always knows which stack is active (including its fake-stack
//     when detect_stack_use_after_return is on). Recycled pool slots are
//     explicitly unpoisoned on release so a dead fiber's redzones cannot
//     leak into its successor.
//   * ThreadSanitizer — every fiber owns a TSan fiber context
//     (__tsan_create_fiber / __tsan_destroy_fiber) and every switch is
//     announced with __tsan_switch_to_fiber, which also synchronizes the two
//     contexts, so TSan sees one logical thread hopping between stacks
//     instead of unsynchronized "threads" (see DESIGN.md §8). TSan counts
//     each fiber toward its thread limit (8128 contexts), which caps the
//     rank count of a single engine under TSan.
#pragma once

#include <cstddef>

// Build-configuration detection; Fiber's members depend on it.

#if defined(__SANITIZE_ADDRESS__)
#define MRL_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MRL_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define MRL_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MRL_FIBER_TSAN 1
#endif
#endif

// Hand-rolled switch on x86-64; POSIX swapcontext() everywhere else.
// MRL_FIBER_FORCE_UCONTEXT forces the fallback (used to test that path on
// x86-64 hosts).
#if defined(__x86_64__) && !defined(MRL_FIBER_FORCE_UCONTEXT)
#define MRL_FIBER_ASM 1
#endif

namespace mrl::runtime {

/// Pool occupancy snapshot, for tests and capacity audits.
struct StackPoolStats {
  std::size_t slabs = 0;        ///< mmap'd slabs alive (never unmapped)
  std::size_t total_slots = 0;  ///< slots carved across all slabs
  std::size_t free_slots = 0;   ///< slots currently on freelists
};
[[nodiscard]] StackPoolStats stack_pool_stats();

class Fiber {
 public:
  Fiber() = default;
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Takes a pooled stack slot of (at least) `stack_bytes` usable bytes and
  /// primes the fiber so the first switch_to() into it enters `entry(arg)`.
  /// `entry` must never return — a fiber ends its life suspended in a
  /// switch_to() away from itself (or is simply destroyed while parked). The
  /// slot returns to the pool's freelist when this Fiber is destroyed.
  void create(std::size_t stack_bytes, void (*entry)(void*), void* arg);

  /// Marks this Fiber as the calling OS thread's native context so created
  /// fibers can switch back to it. Call before the first switch of every
  /// scheduling episode: the episode's owning thread may change between
  /// calls (e.g. an engine driven from different sweep-pool workers).
  void adopt_thread();

  /// Suspends `from` (which must be the currently executing context) and
  /// resumes `to`. Returns when `from` is next switched to.
  static void switch_to(Fiber& from, Fiber& to);

  /// True once create() gave this fiber its own stack.
  [[nodiscard]] bool created() const { return stack_mem_ != nullptr; }

  /// Fills the not-yet-touched part of the stack with a sentinel pattern so
  /// stack_high_water_bytes() can later tell how deep execution reached.
  /// Call right after create(), before the first switch-in. Commits the
  /// stack's pages, so it is opt-in (metrics runs only).
  void poison_stack();

  /// Deepest stack use observed since poison_stack(), in bytes from the top
  /// of the usable region. Zero if the stack was never poisoned.
  [[nodiscard]] std::size_t stack_high_water_bytes() const;

  /// Usable stack bytes (the slot size).
  [[nodiscard]] std::size_t stack_usable_bytes() const { return stack_bytes_; }

  // Used by the entry trampolines; not part of the public surface.
  void run_entry_for_trampoline();

 private:
#if defined(MRL_FIBER_ASM)
  void* sp_ = nullptr;          ///< saved stack pointer
#else
  void* uctx_ = nullptr;        ///< heap ucontext_t
#endif
  void* stack_mem_ = nullptr;   ///< lowest byte of the StackPool slot
  std::size_t stack_bytes_ = 0; ///< slot size = usable stack bytes
  void (*entry_)(void*) = nullptr;
  void* arg_ = nullptr;
  bool poisoned_ = false;       ///< stack filled with the HWM sentinel
#if defined(MRL_FIBER_ASAN)
  void* asan_fake_ = nullptr;         ///< fake-stack handle while suspended
  const void* asan_bottom_ = nullptr; ///< stack region for ASan
  std::size_t asan_size_ = 0;
#endif
#if defined(MRL_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;        ///< TSan context of this fiber/thread
#endif
};

#if defined(MRL_FIBER_ASM) && !defined(MRL_FIBER_ASAN) && \
    !defined(MRL_FIBER_TSAN)
// An engine holds one Fiber per rank, a million of them at the largest.
static_assert(sizeof(Fiber) <= 48, "a fiber record must stay compact");
#endif

}  // namespace mrl::runtime
