// DIST table (Section V-B): a single table per SM, shared by all CTAs,
// because the inter-warp stride of a load is one kernel-wide constant.
// Each entry: load PC, stride, and a one-byte misprediction counter that
// throttles prefetching for the PC once it crosses the threshold. Sticky
// admission is its own replacement rule, so it keeps its own slot array
// rather than LruTable's.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace caps {

class DistTable {
 public:
  struct Entry {
    bool valid = false;
    Addr pc = 0;
    i64 stride = 0;
    u8 mispredicts = 0;  ///< saturating, 1 byte as in Table I
    u64 lru = 0;
  };

  DistTable(u32 num_entries, u32 mispredict_threshold)
      : entries_(num_entries), threshold_(mispredict_threshold) {}

  Entry* find(Addr pc);

  /// Read-only lookup for introspection (oracle cross-checker, tests):
  /// unlike find(), does NOT refresh the LRU stamp, so observing the table
  /// can never perturb replacement.
  const Entry* find(Addr pc) const;

  /// All entries (valid and not), read-only, for introspection.
  std::span<const Entry> entries() const { return entries_; }

  /// Record a confirmed stride for `pc` (resets the misprediction counter).
  /// The table is sticky: when all entries are valid and healthy the new PC
  /// is NOT admitted (returns nullptr) — CAPS targets at most `capacity`
  /// distinct loads per kernel (Section V-B: "at most four distinct
  /// loads"). Throttled entries are eligible victims.
  Entry* record(Addr pc, i64 stride);

  /// Bump the misprediction counter (saturating at 255).
  void mispredict(Entry& e) {
    if (e.mispredicts < 255) ++e.mispredicts;
  }

  /// Prefetching for this PC is disabled once mispredictions exceed the
  /// threshold (128 by default).
  bool throttled(const Entry& e) const { return e.mispredicts > threshold_; }

  /// Whether a new PC could still be admitted by record().
  bool can_admit() const {
    for (const Entry& e : entries_)
      if (!e.valid || throttled(e)) return true;
    return false;
  }

 private:
  std::vector<Entry> entries_;
  u32 threshold_;
  u64 clock_ = 0;
};

}  // namespace caps
