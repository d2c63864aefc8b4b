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

#include <algorithm>
#include <span>
#include <vector>

#include "common/diag.hpp"
#include "common/types.hpp"
#include "prefetch/lru_table.hpp"

namespace caps {

class PerCtaEntry {
 public:
  /// An entry whose bases live in `storage`, which has room for `max_bases`
  /// lines (CapsConfig::max_coalesced_lines).
  PerCtaEntry(Addr* storage, u32 max_bases)
      : storage_(storage), max_bases_(max_bases) {}

  u32 leading_warp = 0;     ///< warp-in-CTA id of the leading warp
  u32 iteration = 0;        ///< loop iteration the bases were captured at
  u64 issued_mask = 0;      ///< warps that already executed this load
  u64 prefetched_mask = 0;  ///< warps a prefetch was generated for

  /// Base line addresses (<= max_bases).
  std::span<const Addr> bases() const { return {storage_, num_bases_}; }
  void set_bases(std::span<const Addr> lines) {
    CAPS_CHECK(lines.size() <= max_bases_,
               "PerCTA entry given more bases than max_coalesced_lines");
    std::copy(lines.begin(), lines.end(), storage_);
    num_bases_ = static_cast<u32>(lines.size());
  }

  void clear() {
    leading_warp = 0;
    iteration = 0;
    num_bases_ = 0;
    issued_mask = 0;
    prefetched_mask = 0;
  }

 private:
  Addr* storage_;
  u32 max_bases_;
  u32 num_bases_ = 0;
};

/// Keyed by load PC. The bases of all entries share one array of
/// `entries × max_bases` lines, allocated once.
class PerCtaTable {
 public:
  PerCtaTable(u32 entries, u32 max_bases)
      : bases_(std::size_t{entries} * max_bases),
        table_(entries, [&](u32 slot) {
          return PerCtaEntry(&bases_[std::size_t{slot} * max_bases],
                             max_bases);
        }) {}
  /// A move keeps bases_'s buffer, so the entries stay valid; a copy would
  /// leave them pointing into the original.
  PerCtaTable(PerCtaTable&&) = default;

  PerCtaEntry* find(Addr pc) { return table_.find(pc); }
  const PerCtaEntry* find(Addr pc) const { return table_.find(pc); }
  PerCtaEntry& insert(Addr pc) { return table_.insert(pc); }
  void erase(Addr pc) { table_.erase(pc); }
  void clear() { table_.clear(); }
  u32 size() const { return table_.size(); }

 private:
  std::vector<Addr> bases_;  ///< entry i's at [i × max_bases, ...)
  LruTable<Addr, PerCtaEntry> table_;
};

}  // namespace caps
