// A growable array of trivially copyable values whose storage grows with
// `realloc`.
//
// std::vector grows by allocating a new block, copying and freeing the old
// one, so growing to N bytes leaves about N more bytes of freed blocks and
// writes every page of each. realloc grows a block in place where it can:
// glibc extends a block at the top of the heap, and moves a block it mapped
// with mremap, copying nothing. RMA delivery queues use it: a roofline point
// queues 1-2 MB of puts in flight, and as one block that memory goes back to
// the malloc arena when the world ends, where the next world's queues can
// reuse it without faulting its pages in again. A freed chain twice that
// size crosses glibc's trim threshold and goes back to the kernel instead
// (DESIGN.md "Storage lifetime"). clear() keeps the capacity.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mrl::util {

template <typename T>
class PodVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodVector moves its elements with memcpy and realloc");

 public:
  PodVector() = default;
  ~PodVector() { std::free(data_); }

  PodVector(PodVector&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  PodVector(const PodVector&) = delete;
  PodVector& operator=(const PodVector&) = delete;
  PodVector& operator=(PodVector&&) = delete;

  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] const T& front() const { return data_[0]; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }
  /// Appends the `n` values at `p`, which must not point into this array.
  void append(const T* p, std::size_t n) {
    if (n == 0) return;
    if (cap_ - size_ < n) grow(size_ + n);
    std::memcpy(data_ + size_, p, n * sizeof(T));
    size_ += n;
  }
  /// Replaces the contents with the `n` values at `p` (not in this array).
  void assign(const T* p, std::size_t n) {
    size_ = 0;
    append(p, n);
  }
  /// Drops the first `n` values.
  void erase_front(std::size_t n) {
    std::memmove(data_, data_ + n, (size_ - n) * sizeof(T));
    size_ -= n;
  }
  void clear() { size_ = 0; }

 private:
  /// Grows like std::vector: to twice the size, or to `need` if larger.
  /// Out of line, like std::vector's, so pushes inline only the check.
  [[gnu::noinline]] void grow(std::size_t need) {
    const std::size_t cap = need > 2 * size_ ? need : 2 * size_;
    void* p = std::realloc(data_, cap * sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
    cap_ = cap;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace mrl::util
