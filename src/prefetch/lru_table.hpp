// Fixed-capacity LRU table: the one replacement policy of the prefetcher
// tables (the INTRA/INTER/MTA stride tables, LAP's macro-block tracker and
// the CAPS DIST and PerCTA tables). Like the hardware arrays it models, the
// slots are allocated once at construction, as one array of
// {key, stamp, entry}; a lookup is a linear scan over at most `capacity`
// slots and nothing touches the heap afterwards (DESIGN.md §13).
//
// A slot's LRU stamp is 0 while the slot is free and unique otherwise, so
// "the first free slot, else the least recently used one" is simply the
// first slot with the smallest stamp, and no victim depends on scan order.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace caps {

/// `Entry` is the per-slot payload. A slot is handed out after its entry's
/// clear() runs.
template <typename Key, typename Entry>
class LruTable {
 public:
  /// `capacity` slots (at least one) of value-initialised entries.
  explicit LruTable(u32 capacity) : slots_(capacity) {}

  /// The entry for `key`, refreshing its LRU stamp; nullptr if absent.
  Entry* find(const Key& key) {
    const u32 i = index_of(key);
    if (i == kAbsent) return nullptr;
    slots_[i].stamp = ++clock_;
    return &slots_[i].entry;
  }

  /// Read-only lookup: leaves the LRU stamps alone, so observing the table
  /// (tests, introspection) never perturbs replacement.
  const Entry* find(const Key& key) const {
    const u32 i = index_of(key);
    return i == kAbsent ? nullptr : &slots_[i].entry;
  }

  /// Claim a slot for `key`, which must be absent: the first free slot,
  /// else the least recently used one. Returns the cleared entry.
  Entry& insert(const Key& key) {
    return *insert_if(key, [](const Entry&) { return true; });
  }

  /// Claim a slot for `key`, which must be absent: the first free slot,
  /// else the least recently used entry that `evictable(entry)` accepts.
  /// Returns the cleared entry, or nullptr when no slot may be taken.
  template <typename Evictable>
  Entry* insert_if(const Key& key, Evictable evictable) {
    Slot* victim = nullptr;
    for (Slot& s : slots_) {
      if (s.stamp == 0) {
        victim = &s;
        break;
      }
      if ((victim == nullptr || s.stamp < victim->stamp) && evictable(s.entry))
        victim = &s;
    }
    if (victim == nullptr) return nullptr;
    victim->key = key;
    victim->stamp = ++clock_;
    victim->entry.clear();
    return &victim->entry;
  }

  /// Free the slot of `key`, if present.
  void erase(const Key& key) {
    const u32 i = index_of(key);
    if (i != kAbsent) slots_[i].stamp = 0;
  }

  /// Free every slot.
  void clear() {
    for (Slot& s : slots_) s.stamp = 0;
  }

  /// Number of occupied slots.
  u32 size() const {
    u32 n = 0;
    for (const Slot& s : slots_)
      if (s.stamp != 0) ++n;
    return n;
  }

  u32 capacity() const { return static_cast<u32>(slots_.size()); }

  /// fn(key, entry) for every occupied slot, in slot order; leaves the LRU
  /// stamps alone.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Slot& s : slots_)
      if (s.stamp != 0) fn(s.key, s.entry);
  }

 private:
  struct Slot {
    Key key{};
    u64 stamp = 0;  ///< 0: free slot; else unique, larger == newer
    Entry entry{};
  };

  static constexpr u32 kAbsent = ~u32{0};

  u32 index_of(const Key& key) const {
    for (u32 i = 0; i < slots_.size(); ++i)
      if (slots_[i].key == key && slots_[i].stamp != 0) return i;
    return kAbsent;
  }

  std::vector<Slot> slots_;
  u64 clock_ = 0;
};

}  // namespace caps
