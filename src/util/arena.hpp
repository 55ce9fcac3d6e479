// Bump-pointer arena for per-operation transient scratch (DESIGN.md §10).
//
// The simulator's hot paths used to pay one or more heap allocations per
// simulated operation, e.g. the fabric's per-transfer lane-claim vector. An
// Arena turns those into a pointer bump: allocate() carves from a current
// block, reset() rewinds to empty while RETAINING the blocks, so a
// steady-state caller (one reset per transfer) performs zero heap
// allocations after warm-up.
//
// Contract:
//   * returned memory is uninitialized; only trivially-destructible types
//     may live in it (alloc_array enforces this) — reset() never runs
//     destructors;
//   * not thread-safe — each owner (e.g. a Fabric) is already serialized
//     by the engine;
//   * AddressSanitizer-aware: rewound and not-yet-allocated bytes are
//     poisoned, so a stale pointer into reset() memory is a hard ASan error
//     instead of silent reuse (the ASan/UBSan CI jobs exercise this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace mrl::util {

class Arena {
 public:
  /// Blocks grow geometrically from `min_block_bytes` as needed.
  explicit Arena(std::size_t min_block_bytes = 16 * 1024);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage, aligned to `align` (power of two, <= 16).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Uninitialized array of `n` Ts. T must be trivially destructible:
  /// reset() rewinds the memory without running destructors.
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is rewound, never destructed");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, retaining every block for reuse (and poisoning the
  /// vacated bytes under ASan).
  void reset();

  /// Bytes handed out since the last reset (diagnostic).
  [[nodiscard]] std::size_t bytes_in_use() const { return in_use_; }
  /// Total block capacity currently retained (diagnostic).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Block {
    unsigned char* data = nullptr;
    std::size_t size = 0;
  };

  /// Makes a block with >= `bytes` free and points cursor_ into it.
  void* grow(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t min_block_bytes_;
  std::size_t cur_block_ = 0;  ///< index of the block being bumped
  std::size_t cur_off_ = 0;    ///< bump offset within blocks_[cur_block_]
  std::size_t in_use_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace mrl::util
