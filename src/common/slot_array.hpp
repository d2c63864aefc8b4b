// SlotArray: fixed-capacity storage for the hardware arrays of a machine
// (ring slots, MSHR waiter slots, per-line cache metadata). It is allocated
// once and never initialised up front: a slot is built by the first
// emplace() into it, and callers read only slots they built. A machine so
// touches only the storage its run writes (DESIGN.md §13). An array carved
// from a SlotRegion leaves its storage to the region, which frees it; any
// other array allocates and frees its own.
//
// Elements are never destroyed, so T must be trivially destructible.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/slot_region.hpp"

namespace caps {

template <typename T>
class SlotArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "SlotArray never destroys its elements");

 public:
  SlotArray() = default;
  /// `n` slots, carved from `region` if given, else allocated here.
  explicit SlotArray(std::size_t n, SlotRegion* region = nullptr)
      : data_(n == 0             ? nullptr
              : region != nullptr ? region->carve<T>(n)
                                  : std::allocator<T>{}.allocate(n)),
        size_(n),
        owned_(region == nullptr) {}
  SlotArray(SlotArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        owned_(o.owned_) {}
  SlotArray& operator=(SlotArray&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(owned_, o.owned_);
    return *this;
  }
  ~SlotArray() {
    if (owned_ && data_ != nullptr)
      std::allocator<T>{}.deallocate(data_, size_);
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
  bool owned_ = true;  ///< false: the storage belongs to a SlotRegion
};

}  // namespace caps
