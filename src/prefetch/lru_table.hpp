// Fixed-capacity LRU table: the one replacement policy of the prefetcher
// tables (the INTRA/INTER/MTA stride tables, LAP's macro-block tracker and
// the CAPS PerCTA tables). Like the hardware arrays it models, the slots are
// allocated once at construction; a lookup is a linear scan over at most
// `capacity` keys and nothing touches the heap afterwards (DESIGN.md §13).
//
// A slot's LRU stamp is 0 while the slot is free and unique otherwise, so
// "the first free slot, else the least recently used one" is simply the
// first slot with the smallest stamp, and no victim depends on scan order.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace caps {

/// `Entry` is the per-slot payload. insert() hands out a slot after calling
/// the entry's clear(), so an entry keeps whatever storage it was given when
/// it was constructed.
template <typename Key, typename Entry>
class LruTable {
 public:
  /// `capacity` slots (at least one) of value-initialised entries.
  explicit LruTable(u32 capacity)
      : LruTable(capacity, [](u32) { return Entry{}; }) {}

  /// `capacity` slots (at least one); slot i holds make(i).
  template <typename Make>
  LruTable(u32 capacity, Make make) : keys_(capacity), stamps_(capacity, 0) {
    entries_.reserve(capacity);
    for (u32 i = 0; i < capacity; ++i) entries_.push_back(make(i));
  }

  /// The entry for `key`, refreshing its LRU stamp; nullptr if absent.
  Entry* find(const Key& key) {
    const u32 i = index_of(key);
    if (i == kAbsent) return nullptr;
    stamps_[i] = ++clock_;
    return &entries_[i];
  }

  /// Read-only lookup: leaves the LRU stamps alone, so observing the table
  /// (tests, introspection) never perturbs replacement.
  const Entry* find(const Key& key) const {
    const u32 i = index_of(key);
    return i == kAbsent ? nullptr : &entries_[i];
  }

  /// Claim a slot for `key`, which must be absent: the first free slot,
  /// else the least recently used one. Returns the cleared entry.
  Entry& insert(const Key& key) {
    u32 victim = 0;
    for (u32 i = 1; i < stamps_.size() && stamps_[victim] != 0; ++i)
      if (stamps_[i] < stamps_[victim]) victim = i;
    keys_[victim] = key;
    stamps_[victim] = ++clock_;
    entries_[victim].clear();
    return entries_[victim];
  }

  /// Free the slot of `key`, if present.
  void erase(const Key& key) {
    const u32 i = index_of(key);
    if (i != kAbsent) stamps_[i] = 0;
  }

  /// Free every slot.
  void clear() { std::fill(stamps_.begin(), stamps_.end(), u64{0}); }

  /// Number of occupied slots.
  u32 size() const {
    return static_cast<u32>(std::count_if(stamps_.begin(), stamps_.end(),
                                          [](u64 s) { return s != 0; }));
  }

 private:
  static constexpr u32 kAbsent = ~u32{0};

  u32 index_of(const Key& key) const {
    for (u32 i = 0; i < keys_.size(); ++i)
      if (keys_[i] == key && stamps_[i] != 0) return i;
    return kAbsent;
  }

  std::vector<Key> keys_;
  std::vector<u64> stamps_;  ///< 0: free slot; else unique, larger == newer
  std::vector<Entry> entries_;
  u64 clock_ = 0;
};

}  // namespace caps
