// Small LRU-managed stride-detection table shared by the INTRA/INTER/MTA
// baseline prefetchers. Each entry tracks the last observed address for a
// key plus a confirmed stride and a 2-bit confidence counter.
#pragma once

#include "common/types.hpp"
#include "prefetch/lru_table.hpp"

namespace caps {

class StrideTable {
 public:
  struct Entry {
    Addr last_addr = 0;
    i64 stride = 0;
    u32 confidence = 0;  ///< consecutive confirmations of `stride`
    u32 last_warp = 0;  ///< warp slot of `last_addr` (observe_warp only)

    void clear() { *this = Entry{}; }
  };

  explicit StrideTable(u32 max_entries) : table_(max_entries) {}

  /// Observe a new address: the stride is the distance from the entry's
  /// last address. Returns the entry after the update.
  Entry& observe(u64 key, Addr addr);

  /// Observe a new address from warp slot `warp`: the stride is the
  /// distance from the entry's last address per warp slot between them.
  /// A repeat from the same warp, or a distance the warp gap does not
  /// divide, leaves stride and confidence unchanged.
  Entry& observe_warp(u64 key, u32 warp, Addr addr);

  std::size_t size() const { return table_.size(); }

 private:
  /// Baer-Chen confidence update with a newly measured `stride`.
  static void confirm(Entry& e, i64 stride);

  LruTable<u64, Entry> table_;
};

}  // namespace caps
