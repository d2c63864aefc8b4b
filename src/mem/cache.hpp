// Set-associative cache tag array with LRU replacement. Pure tag/state
// model: timing and miss handling live in the controllers (LdStUnit for L1,
// L2Partition for L2). Templated on the per-line metadata of its level: the
// L1 keeps prefetch bookkeeping, the L2 only a dirty flag.
//
// Tags, LRU stamps and metadata are three arrays. Only the tags are set at
// construction (to kFree, the invalid marker); a way's stamp and metadata
// are SlotArray slots built by the fill that validates the way, so a build
// touches one tag per line.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/slot_array.hpp"
#include "common/types.hpp"

namespace caps {

/// Per-line bookkeeping of the L1: prefetch consumption and distance.
struct L1LineMeta {
  bool prefetched = false;   ///< filled by a prefetch and not yet used
  Cycle pf_issue_cycle = 0;  ///< when the prefetch was issued (distance stat)
  Addr pf_pc = 0;            ///< the load PC the prefetch targeted
};

/// Per-line bookkeeping of the write-back L2.
struct L2LineMeta {
  bool dirty = false;  ///< modified since the fill
};

template <typename Meta>
class SetAssocCache {
 public:
  /// Tag of an invalid way. Lines are line-aligned, so no real line
  /// collides with it; fill() rejects it.
  static constexpr Addr kFree = ~Addr{0};

  explicit SetAssocCache(const CacheConfig& cfg);

  /// Probe without changing replacement state. Returns true on hit.
  bool contains(Addr line) const { return lookup(line) != kNone; }

  /// Access a line: on hit, updates LRU and returns the line's metadata
  /// (prefetch consumption, dirty marking); on miss returns nullptr without
  /// allocating (controllers allocate on fill).
  Meta* access(Addr line);

  /// Fill a line (after a miss is serviced) into the set's first invalid
  /// way, else its LRU way; the evicted line's metadata is returned so the
  /// controller can account early-evicted prefetches. No-op (metadata
  /// refresh) if already present. One pass over the set.
  std::optional<std::pair<Addr, Meta>> fill(Addr line, const Meta& meta);

  u32 num_sets() const { return sets_; }
  u32 assoc() const { return cfg_.assoc; }
  u32 line_size() const { return cfg_.line_size; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Index of the first way of `line`'s set.
  std::size_t set_begin(Addr line) const {
    return ((line >> line_shift_) & (sets_ - 1)) * cfg_.assoc;
  }
  /// Index of the way holding `line`, or kNone.
  std::size_t lookup(Addr line) const;

  CacheConfig cfg_;
  u32 sets_;
  u32 line_shift_;  ///< log2(line_size); validate() requires a power of two
  u64 lru_clock_ = 0;
  std::vector<Addr> tags_;  ///< sets_ * assoc, row-major by set; kFree: invalid
  SlotArray<u64> lru_;      ///< valid ways: larger == more recently used
  SlotArray<Meta> meta_;    ///< valid ways: metadata written by the fill
};

}  // namespace caps
