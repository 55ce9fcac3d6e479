// Zero-initialized bytes that are committed only as they are touched.
//
// `std::vector<std::byte>(n)` value-initializes, so it writes every byte and
// faults in every page up front. ZeroBytes takes `std::calloc(n, 1)` instead:
// glibc (and the ASan allocator) serve large callocs from fresh anonymous
// mmap pages without a memset, so a page becomes resident only when the
// program first touches it, and untouched bytes still read as zero. Small
// sizes come from the ordinary heap and are zeroed there; the contents are
// identical either way (DESIGN.md "Lazily committed zero memory").
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace mrl::util {

class ZeroBytes {
 public:
  /// `n` zero bytes; `n == 0` holds no memory (data() is null).
  explicit ZeroBytes(std::size_t n)
      : data_(n == 0 ? nullptr : static_cast<std::byte*>(std::calloc(n, 1))),
        size_(n) {
    if (n != 0 && data_ == nullptr) throw std::bad_alloc();
  }
  ~ZeroBytes() { std::free(data_); }

  /// Movable so a std::vector can hold it; the source is left empty.
  ZeroBytes(ZeroBytes&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  ZeroBytes(const ZeroBytes&) = delete;
  ZeroBytes& operator=(const ZeroBytes&) = delete;

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::byte* data_;
  std::size_t size_;
};

}  // namespace mrl::util
