// Fixed-capacity FIFO used to model hardware queues. Capacity is a hard
// structural limit: callers must check full() before push(). Overflow and
// underflow are CAPS_CHECK-guarded so they abort the run loudly even in
// release (NDEBUG) builds instead of corrupting queue state.
#pragma once

#include <utility>

#include "common/diag.hpp"
#include "common/flat_deque.hpp"
#include "common/types.hpp"

namespace caps {

template <typename T>
class BoundedQueue {
 public:
  /// Pre-sizes the ring so pushes up to the structural limit never allocate
  /// (the zero-allocation steady-state contract, DESIGN.md §13).
  explicit BoundedQueue(std::size_t capacity = 0) : capacity_(capacity) {
    items_.reserve(capacity_);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() >= capacity_; }

  /// Push; throws SimError if there is no room (model code must gate on
  /// full()).
  void push(T item) {
    CAPS_CHECK(!full(), "BoundedQueue overflow: caller must check full()");
    items_.push_back(std::move(item));
  }

  T& front() {
    CAPS_CHECK(!empty(), "BoundedQueue::front on empty queue");
    return items_.front();
  }
  const T& front() const {
    CAPS_CHECK(!empty(), "BoundedQueue::front on empty queue");
    return items_.front();
  }

  T pop() {
    CAPS_CHECK(!empty(), "BoundedQueue underflow: pop on empty queue");
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  std::size_t capacity_;
  FlatDeque<T> items_;
};

}  // namespace caps
