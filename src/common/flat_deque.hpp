// FlatDeque: a contiguous ring-buffer deque for hot-path queues.
//
// std::deque allocates and frees its backing blocks as elements churn
// through the queue, which puts an allocator round-trip on the per-cycle
// simulation path (scheduler promotion/demotion, DRAM completions,
// crossbar lanes). FlatDeque keeps one power-of-two backing ring that only
// ever grows: after reserve() — or once the run's high-water mark is reached
// — push/pop/erase never touch the heap, which is what the zero-allocation
// steady-state contract (DESIGN.md §13) is built on. The ring is a
// SlotArray: reserve() allocates it without building any slot, and a push
// constructs the slot it writes, so a queue touches only the slots its run
// fills.
//
// Semantics match the std::deque subset the simulator uses: FIFO/LIFO ends,
// random access, middle erase (used by queue maintenance; elements shift, so
// iterators past the erase point are invalidated exactly like std::vector).
// T must be trivially destructible (pops never destroy) and move-assignable.
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>

#include "common/diag.hpp"
#include "common/slot_array.hpp"

namespace caps {

template <typename T>
class FlatDeque {
 public:
  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    Iter(std::conditional_t<Const, const FlatDeque*, FlatDeque*> c,
         std::size_t idx)
        : c_(c), idx_(idx) {}
    /// Mutable -> const iterator conversion.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : c_(o.container()), idx_(o.index()) {}  // NOLINT(google-explicit-constructor)

    reference operator*() const { return (*c_)[idx_]; }
    pointer operator->() const { return &(*c_)[idx_]; }
    reference operator[](difference_type n) const {
      return (*c_)[idx_ + static_cast<std::size_t>(n)];
    }

    Iter& operator++() { ++idx_; return *this; }
    Iter operator++(int) { Iter t = *this; ++idx_; return t; }
    Iter& operator--() { --idx_; return *this; }
    Iter operator--(int) { Iter t = *this; --idx_; return t; }
    Iter& operator+=(difference_type n) {
      idx_ = static_cast<std::size_t>(static_cast<difference_type>(idx_) + n);
      return *this;
    }
    Iter& operator-=(difference_type n) { return *this += -n; }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.idx_) -
             static_cast<difference_type>(b.idx_);
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) { return !(a == b); }
    friend bool operator<(const Iter& a, const Iter& b) {
      return a.idx_ < b.idx_;
    }
    friend bool operator>(const Iter& a, const Iter& b) { return b < a; }
    friend bool operator<=(const Iter& a, const Iter& b) { return !(b < a); }
    friend bool operator>=(const Iter& a, const Iter& b) { return !(a < b); }

    auto container() const { return c_; }
    std::size_t index() const { return idx_; }

   private:
    std::conditional_t<Const, const FlatDeque*, FlatDeque*> c_ = nullptr;
    std::size_t idx_ = 0;  ///< logical position (0 == front)
  };

  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  FlatDeque() = default;
  explicit FlatDeque(std::size_t capacity) { reserve(capacity); }
  /// The same elements, front first, in a ring of the same capacity.
  FlatDeque(const FlatDeque& o) : buf_(o.capacity()), count_(o.count_) {
    for (std::size_t i = 0; i < count_; ++i) buf_.emplace(i, o[i]);
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t capacity() const { return buf_.size(); }
  void clear() { head_ = count_ = 0; }

  /// Grow the backing array to hold at least `n` elements without further
  /// allocation. Never shrinks.
  void reserve(std::size_t n) {
    if (n > buf_.size()) regrow(n);
  }

  T& operator[](std::size_t i) { return buf_[physical(i)]; }
  const T& operator[](std::size_t i) const { return buf_[physical(i)]; }

  T& front() {
    CAPS_CHECK(count_ > 0, "FlatDeque::front on empty deque");
    return buf_[head_];
  }
  const T& front() const {
    CAPS_CHECK(count_ > 0, "FlatDeque::front on empty deque");
    return buf_[head_];
  }
  T& back() {
    CAPS_CHECK(count_ > 0, "FlatDeque::back on empty deque");
    return buf_[physical(count_ - 1)];
  }
  const T& back() const {
    CAPS_CHECK(count_ > 0, "FlatDeque::back on empty deque");
    return buf_[physical(count_ - 1)];
  }

  void push_back(T v) {
    if (count_ == buf_.size()) regrow(count_ + 1);
    buf_.emplace(physical(count_), std::move(v));
    ++count_;
  }

  void push_front(T v) {
    if (count_ == buf_.size()) regrow(count_ + 1);
    head_ = (head_ + buf_.size() - 1) & mask();
    buf_.emplace(head_, std::move(v));
    ++count_;
  }

  void pop_front() {
    CAPS_CHECK(count_ > 0, "FlatDeque::pop_front on empty deque");
    head_ = (head_ + 1) & mask();
    --count_;
  }

  void pop_back() {
    CAPS_CHECK(count_ > 0, "FlatDeque::pop_back on empty deque");
    --count_;
  }

  /// Erase the element at `pos`; elements behind it shift forward one slot
  /// (iterators at or past `pos` are invalidated). Returns an iterator to
  /// the element that followed the erased one.
  iterator erase(const_iterator pos) {
    const std::size_t i = pos.index();
    CAPS_CHECK(i < count_, "FlatDeque::erase out of range");
    for (std::size_t k = i + 1; k < count_; ++k)
      buf_[physical(k - 1)] = std::move(buf_[physical(k)]);
    --count_;
    return iterator(this, i);
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, count_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, count_); }
  const_iterator cbegin() const { return begin(); }
  const_iterator cend() const { return end(); }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  friend bool operator==(const FlatDeque& a, const FlatDeque& b) {
    if (a.count_ != b.count_) return false;
    for (std::size_t i = 0; i < a.count_; ++i)
      if (!(a[i] == b[i])) return false;
    return true;
  }
  friend bool operator!=(const FlatDeque& a, const FlatDeque& b) {
    return !(a == b);
  }

 private:
  std::size_t mask() const { return buf_.size() - 1; }
  std::size_t physical(std::size_t logical) const {
    return (head_ + logical) & mask();
  }

  static std::size_t pow2_at_least(std::size_t n) {
    std::size_t c = 8;
    while (c < n) c *= 2;
    return c;
  }

  void regrow(std::size_t need) {
    SlotArray<T> next(pow2_at_least(need));
    for (std::size_t i = 0; i < count_; ++i)
      next.emplace(i, std::move((*this)[i]));
    buf_ = std::move(next);
    head_ = 0;
  }

  SlotArray<T> buf_;       ///< power-of-two backing ring (size == capacity)
  std::size_t head_ = 0;   ///< physical index of the logical front
  std::size_t count_ = 0;
};

}  // namespace caps
