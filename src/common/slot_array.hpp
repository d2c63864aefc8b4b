// SlotArray: fixed-capacity storage for the hardware arrays of a machine
// (ring slots, MSHR waiter slots, per-line cache metadata). It is allocated
// once and never initialised up front: a slot is built by the first
// emplace() into it, and callers read only slots they built. A machine so
// touches only the storage its run writes (DESIGN.md §13).
//
// Elements are never destroyed, so T must be trivially destructible.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace caps {

template <typename T>
class SlotArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "SlotArray never destroys its elements");

 public:
  SlotArray() = default;
  explicit SlotArray(std::size_t n)
      : data_(n == 0 ? nullptr : std::allocator<T>{}.allocate(n)), size_(n) {}
  SlotArray(SlotArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  SlotArray& operator=(SlotArray&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    return *this;
  }
  ~SlotArray() {
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, size_);
  }

  std::size_t size() const { return size_; }

  /// Build slot `i` from `v`, replacing whatever it held.
  T& emplace(std::size_t i, T v) {
    return *std::construct_at(data_ + i, std::move(v));
  }

  /// A slot that emplace() built.
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace caps
