// Set-associative cache tag array with LRU replacement. Pure tag/state
// model: timing and miss handling live in the controllers (LdStUnit for L1,
// L2Partition for L2). Templated on the per-line metadata of its level: the
// L1 keeps prefetch bookkeeping, the L2 only a dirty flag.
//
// Tags, LRU stamps and metadata are three SlotArrays whose slots are built
// by the fill that validates the way. No way is ever invalidated and a fill
// takes the set's first invalid way, so a set's valid ways are always its
// first ones: a count per set marks them, and a build writes only those
// counts, not one tag per line.
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
  /// A cache whose slot arrays are carved from `region` if given.
  explicit SetAssocCache(const CacheConfig& cfg,
                         SlotRegion* region = nullptr);

  /// Probe without changing replacement state. Returns true on hit.
  bool contains(Addr line) const { return lookup(line) != kNone; }

  /// Access a line: on hit, updates LRU and returns the line's metadata
  /// (prefetch consumption, dirty marking); on miss returns nullptr without
  /// allocating (controllers allocate on fill).
  Meta* access(Addr line);

  /// Fill a line (after a miss is serviced) into the set's first invalid
  /// way, else its LRU way; the evicted line's metadata is returned so the
  /// controller can account early-evicted prefetches. No-op (metadata
  /// refresh) if already present. One pass over the set's valid ways.
  std::optional<std::pair<Addr, Meta>> fill(Addr line, const Meta& meta);

  u32 num_sets() const { return sets_; }
  u32 assoc() const { return cfg_.assoc; }
  u32 line_size() const { return cfg_.line_size; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// The set `line` maps to.
  std::size_t set_of(Addr line) const {
    return (line >> line_shift_) & (sets_ - 1);
  }
  /// Index of the way holding `line`, or kNone.
  std::size_t lookup(Addr line) const;

  CacheConfig cfg_;
  u32 sets_;
  u32 line_shift_;  ///< log2(line_size); validate() requires a power of two
  u64 lru_clock_ = 0;
  std::vector<u32> valid_;  ///< per set: its valid ways, the first ones
  // Per way, sets_ * assoc, row-major by set; only valid ways are built.
  SlotArray<Addr> tags_;    ///< the line the fill put there
  SlotArray<u64> lru_;      ///< larger == more recently used
  SlotArray<Meta> meta_;    ///< metadata written by the fill
};

}  // namespace caps
