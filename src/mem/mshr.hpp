// Miss Status Holding Registers: track in-flight misses per line and merge
// subsequent accesses to the same line (secondary misses). Templated on the
// waiter type: the L1 parks L1Access descriptors, the L2 parks MemRequests.
// Misuse (allocate-when-full, allocate of an in-flight line or of the free
// marker, merge-past-capacity, merge into a free slot, fill-of-absent-line)
// throws SimError in every build mode: a leaked or double-filled MSHR entry
// silently wedges whole SMs otherwise.
//
// Storage is a slot array of line addresses and waiter counts plus one
// waiter array of `entries × max_merged` slots. A lookup finds a line's slot
// through an open-addressed index beside the slot array (linear probing
// over at least twice as many buckets as entries, backward-shift erase), as
// the hardware CAM it models answers in one step; callers act on the slot
// it returns instead of looking the line up again. Entry i's waiters sit at
// [i × max_merged, i × max_merged + count), in merge order. The waiter array
// is a SlotArray, allocated once (from the machine's SlotRegion when given
// one) and built by the allocate() or merge_at() that writes a slot, so the
// steady state performs no heap allocation (DESIGN.md §13) and a build
// touches no waiter slot.
#pragma once

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/diag.hpp"
#include "common/slot_array.hpp"
#include "common/types.hpp"

namespace caps {

/// The home bucket of `line` in an MSHR index of 2^`bits` buckets
/// (Fibonacci hashing: line addresses differ in their middle bits).
inline u32 mshr_home(Addr line, u32 bits) {
  return static_cast<u32>((line * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

template <typename Waiter>
class Mshr {
 public:
  /// slot_of() of a line with no entry.
  static constexpr u32 kNone = ~u32{0};
  /// Line address of a free slot. Lines are line-aligned, so no real line
  /// collides with it; allocate() rejects it.
  static constexpr Addr kFree = ~Addr{0};

  Mshr(u32 entries, u32 max_merged, SlotRegion* region = nullptr)
      : entries_(entries),
        max_merged_(max_merged),
        index_bits_(static_cast<u32>(
            std::countr_zero(std::bit_ceil(std::max(2 * entries, 2u))))),
        slots_(entries),
        index_(std::size_t{1} << index_bits_, kNone),
        waiters_(std::size_t{entries} * max_merged, region) {
    free_.reserve(entries);
    for (u32 i = entries; i-- > 0;) free_.push_back(i);
  }

  bool full() const { return free_.empty(); }
  std::size_t size() const { return slots_.size() - free_.size(); }
  u32 entries() const { return entries_; }

  /// The slot holding `line`, or kNone if it is not in flight.
  u32 slot_of(Addr line) const { return index_[bucket_of(line)]; }

  /// True if live slot `slot` can take one more merged access.
  bool can_merge_at(u32 slot) const {
    return slots_[slot].count < max_merged_;
  }

  /// Allocate a new entry (primary miss). Precondition: !full() and
  /// slot_of(line) == kNone.
  void allocate(Addr line, Waiter waiter) {
    CAPS_CHECK(!full(), "MSHR allocate with no free entry");
    CAPS_CHECK(line != kFree, "MSHR allocate of the free-slot marker");
    const u32 h = bucket_of(line);
    CAPS_CHECK(index_[h] == kNone,
               "MSHR allocate of an already in-flight line");
    const u32 i = free_.back();
    free_.pop_back();
    index_[h] = i;
    slots_[i] = {line, 1};
    waiters_.emplace(first_waiter(i), std::move(waiter));
  }

  /// Merge a secondary miss into the slot slot_of() returned.
  /// Precondition: can_merge_at(slot).
  void merge_at(u32 slot, Waiter waiter) {
    CAPS_CHECK(slot < slots_.size() && slots_[slot].line != kFree,
               "MSHR merge into a free slot");
    CAPS_CHECK(can_merge_at(slot), "MSHR merge past per-entry capacity");
    waiters_.emplace(first_waiter(slot) + slots_[slot].count++,
                     std::move(waiter));
  }

  /// Service a fill without allocating: appends the entry's waiters to `out`
  /// in merge order (after clearing it) and frees the slot in place. Callers
  /// keep a reserved scratch vector.
  void fill_into(Addr line, std::vector<Waiter>& out) {
    const u32 h = bucket_of(line);
    const u32 i = index_[h];
    CAPS_CHECK(i != kNone, "MSHR fill for a line with no entry");
    out.clear();
    const std::size_t first = first_waiter(i);
    for (std::size_t k = first; k < first + slots_[i].count; ++k)
      out.push_back(std::move(waiters_[k]));
    slots_[i] = {kFree, 0};
    free_.push_back(i);
    erase_bucket(h);
  }

  /// Sorted in-flight line addresses (watchdog snapshots, auditing).
  std::vector<Addr> outstanding_lines() const {
    std::vector<Addr> lines;
    lines.reserve(size());
    for (const Slot& s : slots_)
      if (s.line != kFree) lines.push_back(s.line);
    std::sort(lines.begin(), lines.end());
    return lines;
  }

 private:
  struct Slot {
    Addr line = kFree;  ///< kFree when free
    u32 count = 0;      ///< waiters merged so far
  };

  std::size_t first_waiter(u32 slot) const {
    return std::size_t{slot} * max_merged_;
  }
  u32 next(u32 bucket) const {
    return (bucket + 1) & static_cast<u32>(index_.size() - 1);
  }
  /// The bucket holding `line`'s slot, or else the empty bucket that ends
  /// the probe run from its home.
  u32 bucket_of(Addr line) const {
    u32 h = mshr_home(line, index_bits_);
    while (index_[h] != kNone && slots_[index_[h]].line != line) h = next(h);
    return h;
  }
  /// Empty bucket `h`, and shift back each later entry of its probe run
  /// whose home does not lie cyclically in (h, its bucket], so that every
  /// live line stays reachable from its home without tombstones.
  void erase_bucket(u32 h) {
    for (u32 j = next(h); index_[j] != kNone; j = next(j)) {
      const u32 home = mshr_home(slots_[index_[j]].line, index_bits_);
      const bool stays = h < j ? home > h && home <= j : home > h || home <= j;
      if (stays) continue;
      index_[h] = index_[j];
      h = j;
    }
    index_[h] = kNone;
  }

  u32 entries_;
  u32 max_merged_;
  u32 index_bits_;            ///< the index has 2^index_bits_ buckets
  std::vector<Slot> slots_;   ///< per slot: its line and waiter count
  std::vector<u32> index_;    ///< per bucket: a live slot, or kNone
  SlotArray<Waiter> waiters_; ///< entries × max_merged, merge order per slot
  std::vector<u32> free_;     ///< indices of free slots (LIFO reuse)
};

}  // namespace caps
