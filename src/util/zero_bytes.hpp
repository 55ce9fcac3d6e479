// Zero-initialized bytes that are committed only as they are touched.
//
// `std::vector<std::byte>(n)` value-initializes, so it writes every byte and
// faults in every page up front. ZeroBytes maps sizes of kMapBytes and up
// itself, as private anonymous memory: a page becomes resident only when the
// program first touches it, and untouched bytes read as zero whatever the
// malloc arena held before (a large `calloc` carved from a freed arena hole
// is zero-filled by memset, page by page). Smaller sizes come from `calloc`;
// the contents are identical either way (DESIGN.md "Lazily committed zero
// memory").
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace mrl::util {

class ZeroBytes {
 public:
  /// Sizes from here up get their own mapping; below it, calloc.
  static constexpr std::size_t kMapBytes = std::size_t{128} << 10;

  /// `n` zero bytes; `n == 0` holds no memory (data() is null).
  explicit ZeroBytes(std::size_t n) : data_(allocate(n)), size_(n) {}
  ~ZeroBytes() { release(); }

  /// Movable so a std::vector can hold it; the source is left empty.
  ZeroBytes(ZeroBytes&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  ZeroBytes(const ZeroBytes&) = delete;
  ZeroBytes& operator=(const ZeroBytes&) = delete;
  ZeroBytes& operator=(ZeroBytes&&) = delete;

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static std::byte* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = nullptr;
    if (n >= kMapBytes) {
      p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) p = nullptr;
    } else {
      p = std::calloc(n, 1);
    }
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<std::byte*>(p);
  }

  void release() {
    if (size_ >= kMapBytes) {
      ::munmap(data_, size_);
    } else {
      std::free(data_);
    }
  }

  std::byte* data_;
  std::size_t size_;
};

}  // namespace mrl::util
