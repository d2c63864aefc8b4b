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
#include <array>
#include <span>

#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/types.hpp"
#include "prefetch/lru_table.hpp"

namespace caps {

class PerCtaEntry {
 public:
  u32 leading_warp = 0;     ///< warp-in-CTA id of the leading warp
  u32 iteration = 0;        ///< loop iteration the bases were captured at
  u64 issued_mask = 0;      ///< warps that already executed this load
  u64 prefetched_mask = 0;  ///< warps a prefetch was generated for

  /// Base line addresses (<= CapsConfig::kMaxCoalescedLines).
  std::span<const Addr> bases() const { return {bases_.data(), num_bases_}; }
  void set_bases(std::span<const Addr> lines) {
    CAPS_CHECK(lines.size() <= bases_.size(),
               "PerCTA entry given more bases than kMaxCoalescedLines");
    std::copy(lines.begin(), lines.end(), bases_.begin());
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
  std::array<Addr, CapsConfig::kMaxCoalescedLines> bases_{};
  u32 num_bases_ = 0;
};

/// Keyed by load PC.
using PerCtaTable = LruTable<Addr, PerCtaEntry>;

}  // namespace caps
