// Miss Status Holding Registers: track in-flight misses per line and merge
// subsequent accesses to the same line (secondary misses). Templated on the
// waiter type: the L1 parks L1Access descriptors, the L2 parks MemRequests.
// Misuse (allocate-when-full, allocate of an in-flight line or of the free
// marker, merge-past-capacity, merge into a free slot, fill-of-absent-line)
// throws SimError in every build mode: a leaked or double-filled MSHR entry
// silently wedges whole SMs otherwise.
//
// Storage is a contiguous line array plus one waiter array of
// `entries × max_merged` slots with a count per entry, like the hardware CAM
// it models: a lookup is one linear pass over at most `entries` line
// addresses, and callers act on the slot it returns instead of looking the
// line up again. Entry i's waiters sit at [i × max_merged, i × max_merged +
// count), in merge order. The waiter array is a SlotArray, allocated once
// and built by the allocate() or merge_at() that writes a slot, so the
// steady state performs no heap allocation (DESIGN.md §13) and a build
// touches no waiter slot.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/diag.hpp"
#include "common/slot_array.hpp"
#include "common/types.hpp"

namespace caps {

template <typename Waiter>
class Mshr {
 public:
  /// slot_of() of a line with no entry.
  static constexpr u32 kNone = ~u32{0};
  /// Line address of a free slot. Lines are line-aligned, so no real line
  /// collides with it; allocate() rejects it.
  static constexpr Addr kFree = ~Addr{0};

  Mshr(u32 entries, u32 max_merged)
      : entries_(entries),
        max_merged_(max_merged),
        lines_(entries, kFree),
        counts_(entries, 0),
        waiters_(std::size_t{entries} * max_merged) {
    free_.reserve(entries);
    for (u32 i = entries; i-- > 0;) free_.push_back(i);
  }

  bool full() const { return free_.empty(); }
  std::size_t size() const { return lines_.size() - free_.size(); }
  u32 entries() const { return entries_; }

  /// The slot holding `line`, or kNone if it is not in flight.
  u32 slot_of(Addr line) const {
    const auto it = std::find(lines_.begin(), lines_.end(), line);
    return it == lines_.end() ? kNone : static_cast<u32>(it - lines_.begin());
  }

  /// True if live slot `slot` can take one more merged access.
  bool can_merge_at(u32 slot) const { return counts_[slot] < max_merged_; }

  /// Allocate a new entry (primary miss). Precondition: !full() and
  /// slot_of(line) == kNone.
  void allocate(Addr line, Waiter waiter) {
    CAPS_CHECK(!full(), "MSHR allocate with no free entry");
    CAPS_CHECK(line != kFree, "MSHR allocate of the free-slot marker");
    CAPS_CHECK(slot_of(line) == kNone,
               "MSHR allocate of an already in-flight line");
    const u32 i = free_.back();
    free_.pop_back();
    lines_[i] = line;
    waiters_.emplace(first_waiter(i), std::move(waiter));
    counts_[i] = 1;
  }

  /// Merge a secondary miss into the slot slot_of() returned.
  /// Precondition: can_merge_at(slot).
  void merge_at(u32 slot, Waiter waiter) {
    CAPS_CHECK(slot < lines_.size() && lines_[slot] != kFree,
               "MSHR merge into a free slot");
    CAPS_CHECK(can_merge_at(slot), "MSHR merge past per-entry capacity");
    waiters_.emplace(first_waiter(slot) + counts_[slot]++, std::move(waiter));
  }

  /// Service a fill without allocating: appends the entry's waiters to `out`
  /// in merge order (after clearing it) and frees the slot in place. Callers
  /// keep a reserved scratch vector.
  void fill_into(Addr line, std::vector<Waiter>& out) {
    const u32 i = slot_of(line);
    CAPS_CHECK(i != kNone, "MSHR fill for a line with no entry");
    out.clear();
    const std::size_t first = first_waiter(i);
    for (std::size_t k = first; k < first + counts_[i]; ++k)
      out.push_back(std::move(waiters_[k]));
    counts_[i] = 0;
    lines_[i] = kFree;
    free_.push_back(i);
  }

  /// Sorted in-flight line addresses (watchdog snapshots, auditing).
  std::vector<Addr> outstanding_lines() const {
    std::vector<Addr> lines;
    lines.reserve(size());
    for (const Addr line : lines_)
      if (line != kFree) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  }

 private:
  std::size_t first_waiter(u32 slot) const {
    return std::size_t{slot} * max_merged_;
  }

  u32 entries_;
  u32 max_merged_;
  std::vector<Addr> lines_;   ///< per slot; kFree when free
  std::vector<u32> counts_;   ///< per slot: waiters merged so far
  SlotArray<Waiter> waiters_; ///< entries × max_merged, merge order per slot
  std::vector<u32> free_;     ///< indices of free slots (LIFO reuse)
};

}  // namespace caps
