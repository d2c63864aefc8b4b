// Miss Status Holding Registers: track in-flight misses per line and merge
// subsequent accesses to the same line (secondary misses). Templated on the
// waiter type: the L1 parks L1Access descriptors, the L2 parks MemRequests.
// Misuse (allocate-when-full, merge-past-capacity, fill-of-absent-line)
// throws SimError in every build mode: a leaked or double-filled MSHR entry
// silently wedges whole SMs otherwise.
//
// Storage is a fixed slot array with a free list, like the hardware CAM it
// models: lookups are a linear scan over at most `entries` slots, and after
// construction the steady state performs no heap allocation (DESIGN.md §13)
// — each slot's waiter vector is reserved to `max_merged` up front and is
// cleared, never deallocated, on fill.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/diag.hpp"
#include "common/types.hpp"

namespace caps {

template <typename Waiter>
class Mshr {
 public:
  Mshr(u32 entries, u32 max_merged)
      : entries_(entries), max_merged_(max_merged), slots_(entries) {
    free_.reserve(entries);
    for (u32 i = entries; i-- > 0;) free_.push_back(i);
    for (Slot& s : slots_) s.waiters.reserve(max_merged);
  }

  bool full() const { return free_.empty(); }
  bool has(Addr line) const { return find(line) != kInvalid; }
  std::size_t size() const { return slots_.size() - free_.size(); }
  u32 entries() const { return entries_; }

  /// True if an access to `line` can be merged into an existing entry.
  bool can_merge(Addr line) const {
    const u32 i = find(line);
    return i != kInvalid && slots_[i].waiters.size() < max_merged_;
  }

  /// Allocate a new entry (primary miss). Precondition: !full() && !has(line).
  void allocate(Addr line, Waiter waiter) {
    CAPS_CHECK(!full(), "MSHR allocate with no free entry");
    CAPS_CHECK(!has(line), "MSHR allocate of an already in-flight line");
    const u32 i = free_.back();
    free_.pop_back();
    Slot& s = slots_[i];
    s.line = line;
    s.valid = true;
    s.waiters.push_back(std::move(waiter));
  }

  /// Merge a secondary miss. Precondition: can_merge(line).
  void merge(Addr line, Waiter waiter) {
    const u32 i = find(line);
    CAPS_CHECK(i != kInvalid, "MSHR merge into absent entry");
    CAPS_CHECK(slots_[i].waiters.size() < max_merged_,
               "MSHR merge past per-entry capacity");
    slots_[i].waiters.push_back(std::move(waiter));
  }

  /// Service a fill without allocating: appends the entry's waiters to `out`
  /// in merge order (after clearing it) and frees the slot in place. Callers
  /// keep a reserved scratch vector.
  void fill_into(Addr line, std::vector<Waiter>& out) {
    const u32 i = find(line);
    CAPS_CHECK(i != kInvalid, "MSHR fill for a line with no entry");
    Slot& s = slots_[i];
    out.clear();
    for (Waiter& w : s.waiters) out.push_back(std::move(w));
    s.waiters.clear();  // keeps capacity: the slot never re-allocates
    s.valid = false;
    free_.push_back(i);
  }

  /// Sorted in-flight line addresses (watchdog snapshots, auditing).
  std::vector<Addr> outstanding_lines() const {
    std::vector<Addr> lines;
    lines.reserve(size());
    for (const Slot& s : slots_)
      if (s.valid) lines.push_back(s.line);
    std::sort(lines.begin(), lines.end());
    return lines;
  }

 private:
  struct Slot {
    Addr line = 0;
    std::vector<Waiter> waiters;
    bool valid = false;
  };

  static constexpr u32 kInvalid = ~u32{0};

  u32 find(Addr line) const {
    for (u32 i = 0; i < slots_.size(); ++i)
      if (slots_[i].valid && slots_[i].line == line) return i;
    return kInvalid;
  }

  u32 entries_;
  u32 max_merged_;
  std::vector<Slot> slots_;
  std::vector<u32> free_;  ///< indices of invalid slots (LIFO reuse)
};

}  // namespace caps
