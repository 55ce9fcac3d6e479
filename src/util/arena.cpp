#include "util/arena.hpp"

#include <cstdlib>
#include <new>

#include "util/status.hpp"

// ASan poisoning: keep rewound arena bytes unreadable so use-after-reset is
// a hard error under the sanitizer CI jobs, not silent corruption.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MRL_ARENA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define MRL_ARENA_ASAN 1
#endif

#if defined(MRL_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#define MRL_ARENA_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define MRL_ARENA_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define MRL_ARENA_POISON(addr, size) ((void)(addr), (void)(size))
#define MRL_ARENA_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace mrl::util {

namespace {
// ASan poison granularity is 8 bytes; rounding every allocation keeps the
// poison boundary off live data regardless of the requested alignment.
constexpr std::size_t kQuantum = 8;

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}
}  // namespace

Arena::Arena(std::size_t min_block_bytes)
    : min_block_bytes_(min_block_bytes < 64 ? 64 : min_block_bytes) {}

Arena::~Arena() {
  for (Block& b : blocks_) {
    MRL_ARENA_UNPOISON(b.data, b.size);
    ::operator delete(b.data, std::align_val_t{16});
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  MRL_CHECK(align != 0 && (align & (align - 1)) == 0 && align <= 16);
  const std::size_t want = round_up(bytes < 1 ? 1 : bytes, kQuantum);
  if (cur_block_ < blocks_.size()) {
    Block& b = blocks_[cur_block_];
    const std::size_t off = round_up(cur_off_, align < kQuantum ? kQuantum : align);
    if (off + want <= b.size) {
      cur_off_ = off + want;
      in_use_ += want;
      unsigned char* p = b.data + off;
      MRL_ARENA_UNPOISON(p, want);
      return p;
    }
    // Try the next retained block (after reset() they are all empty).
    if (cur_block_ + 1 < blocks_.size() &&
        want <= blocks_[cur_block_ + 1].size) {
      ++cur_block_;
      cur_off_ = 0;
      return allocate(bytes, align);
    }
  }
  return grow(want, align);
}

void* Arena::grow(std::size_t bytes, std::size_t align) {
  std::size_t size = min_block_bytes_;
  if (!blocks_.empty()) size = blocks_.back().size * 2;
  if (size < bytes) size = round_up(bytes, kQuantum);
  Block b;
  b.data = static_cast<unsigned char*>(
      ::operator new(size, std::align_val_t{16}));
  b.size = size;
  MRL_ARENA_POISON(b.data, b.size);
  capacity_ += size;
  blocks_.push_back(b);
  cur_block_ = blocks_.size() - 1;
  cur_off_ = bytes;
  in_use_ += bytes;
  MRL_ARENA_UNPOISON(b.data, bytes);
  (void)align;  // block bases are 16-aligned, covering every legal align
  return b.data;
}

void Arena::reset() {
  for (Block& b : blocks_) MRL_ARENA_POISON(b.data, b.size);
  cur_block_ = 0;
  cur_off_ = 0;
  in_use_ = 0;
}

}  // namespace mrl::util
