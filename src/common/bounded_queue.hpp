// BoundedQueue: the one fixed-capacity ring behind every hardware queue of
// the machine (scheduler queues, LD/ST queues and hit completions, crossbar
// lanes, L2 and DRAM queues). Its capacity is the structural bound the
// model enforces, fixed at construction, so a run never allocates
// (DESIGN.md §13). The storage is a power-of-two SlotArray: a push
// constructs the slot it writes and a pop destroys nothing, so T must be
// trivially destructible. A push into a full ring and a read of an empty
// one are CAPS_CHECK-guarded: they abort the run loudly even in release
// (NDEBUG) builds instead of corrupting queue state. A ring built with a
// SlotRegion carves its storage from it.
#pragma once

#include <bit>
#include <cstddef>
#include <utility>

#include "common/diag.hpp"
#include "common/slot_array.hpp"

namespace caps {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, SlotRegion* region = nullptr)
      : buf_(std::bit_ceil(capacity), region), capacity_(capacity) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }
  std::size_t capacity() const { return capacity_; }

  /// The element `i` places behind the front; `i` < size().
  T& operator[](std::size_t i) { return buf_[slot(i)]; }
  const T& operator[](std::size_t i) const { return buf_[slot(i)]; }

  T& front() {
    check_nonempty();
    return buf_[head_];
  }
  const T& front() const {
    check_nonempty();
    return buf_[head_];
  }
  T& back() {
    check_nonempty();
    return buf_[slot(count_ - 1)];
  }
  const T& back() const {
    check_nonempty();
    return buf_[slot(count_ - 1)];
  }

  /// Callers gate a push on full(); overflow throws SimError.
  void push_back(T v) {
    CAPS_CHECK(!full(), "BoundedQueue overflow: caller must check full()");
    buf_.emplace(slot(count_), std::move(v));
    ++count_;
  }
  void push_front(T v) {
    CAPS_CHECK(!full(), "BoundedQueue overflow: caller must check full()");
    head_ = slot(buf_.size() - 1);
    buf_.emplace(head_, std::move(v));
    ++count_;
  }

  void pop_front() {
    check_nonempty();
    head_ = slot(1);
    --count_;
  }
  void pop_back() {
    check_nonempty();
    --count_;
  }

  /// Remove the element at `i`; the elements behind it move forward one.
  void erase(std::size_t i) {
    CAPS_CHECK(i < count_, "BoundedQueue::erase out of range");
    for (std::size_t k = i + 1; k < count_; ++k)
      (*this)[k - 1] = std::move((*this)[k]);
    --count_;
  }

 private:
  /// The physical slot of the element `i` places behind the front.
  std::size_t slot(std::size_t i) const {
    return (head_ + i) & (buf_.size() - 1);
  }
  void check_nonempty() const {
    CAPS_CHECK(count_ > 0, "BoundedQueue underflow: empty queue");
  }

  SlotArray<T> buf_;       ///< power-of-two backing ring
  std::size_t capacity_;   ///< the structural bound; at most buf_.size()
  std::size_t head_ = 0;   ///< physical slot of the front
  std::size_t count_ = 0;
};

}  // namespace caps
