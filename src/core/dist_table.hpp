// DIST table (Section V-B): a single table per SM, shared by all CTAs,
// because the inter-warp stride of a load is one kernel-wide constant.
// Each entry: load PC (the table key), stride, and a one-byte misprediction
// counter that throttles prefetching for the PC once it crosses the
// threshold. Admission is sticky: only a throttled entry may be replaced.
#pragma once

#include "common/types.hpp"
#include "prefetch/lru_table.hpp"

namespace caps {

class DistTable {
 public:
  struct Entry {
    i64 stride = 0;
    u8 mispredicts = 0;  ///< saturating, 1 byte as in Table I

    void clear() { *this = Entry{}; }
  };

  DistTable(u32 num_entries, u32 mispredict_threshold)
      : table_(num_entries), threshold_(mispredict_threshold) {}

  Entry* find(Addr pc) { return table_.find(pc); }

  /// Read-only lookup for introspection (oracle cross-checker, tests):
  /// unlike find(), does NOT refresh the LRU stamp, so observing the table
  /// can never perturb replacement.
  const Entry* find(Addr pc) const { return table_.find(pc); }

  /// fn(pc, entry) for every valid entry, in slot order, read-only.
  template <typename Fn>
  void for_each(Fn fn) const {
    table_.for_each(fn);
  }

  /// Record a confirmed stride for `pc` (resets the misprediction counter).
  /// The table is sticky: when all entries are valid and healthy the new PC
  /// is NOT admitted (returns nullptr) — CAPS targets at most `capacity`
  /// distinct loads per kernel (Section V-B: "at most four distinct
  /// loads"). Throttled entries are eligible victims.
  Entry* record(Addr pc, i64 stride) {
    Entry* e = table_.find(pc);
    if (e == nullptr)
      e = table_.insert_if(pc, [&](const Entry& v) { return throttled(v); });
    if (e != nullptr) *e = Entry{stride, 0};
    return e;
  }

  /// Bump the misprediction counter (saturating at 255).
  void mispredict(Entry& e) {
    if (e.mispredicts < 255) ++e.mispredicts;
  }

  /// Prefetching for this PC is disabled once mispredictions exceed the
  /// threshold (128 by default).
  bool throttled(const Entry& e) const { return e.mispredicts > threshold_; }

  /// Whether a new PC could still be admitted by record(): a slot is free
  /// or throttled.
  bool can_admit() const {
    u32 healthy = 0;
    table_.for_each([&](Addr, const Entry& e) {
      if (!throttled(e)) ++healthy;
    });
    return healthy < table_.capacity();
  }

 private:
  LruTable<Addr, Entry> table_;
  u32 threshold_;
};

}  // namespace caps
