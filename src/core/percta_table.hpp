// PerCTA table (Section V-B): one table per hardware CTA slot, four entries
// by default. Each entry stores a targeted load PC (the table key), the id
// of the leading warp that first executed it, and the (up to four)
// coalesced base line addresses that warp produced. Least-recently-updated
// replacement.
//
// The issued/prefetched warp masks are reproduction bookkeeping: hardware
// derives "which warps already ran this load" from warp progress, the
// simulator keeps it explicit so prefetches are generated exactly once per
// (CTA, PC, warp).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "prefetch/lru_table.hpp"

namespace caps {

struct PerCtaEntry {
  /// `max_bases` is the most base lines a load may register
  /// (CapsConfig::max_coalesced_lines); `bases` is reserved to it once.
  explicit PerCtaEntry(u32 max_bases) { bases.reserve(max_bases); }

  u32 leading_warp = 0;     ///< warp-in-CTA id of the leading warp
  u32 iteration = 0;        ///< loop iteration the bases were captured at
  std::vector<Addr> bases;  ///< base line addresses (<= max_bases)
  u64 issued_mask = 0;      ///< warps that already executed this load
  u64 prefetched_mask = 0;  ///< warps a prefetch was generated for

  void clear() {
    leading_warp = 0;
    iteration = 0;
    bases.clear();  // keeps capacity: the entry never re-allocates
    issued_mask = 0;
    prefetched_mask = 0;
  }
};

/// Keyed by load PC; construct as PerCtaTable(entries, max_bases).
using PerCtaTable = LruTable<Addr, PerCtaEntry>;

}  // namespace caps
