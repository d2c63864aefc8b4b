// Set-associative cache tag array with LRU replacement and prefetch
// bookkeeping. Pure tag/state model: timing and miss handling live in the
// controllers (LdStUnit for L1, L2Partition for L2).
#pragma once

#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace caps {

/// Per-line bookkeeping carried in the tag array.
struct LineMeta {
  bool prefetched = false;   ///< filled by a prefetch and not yet used
  bool dirty = false;        ///< modified (write-back caches only)
  Cycle pf_issue_cycle = 0;  ///< when the prefetch was issued (distance stat)
  Addr pf_pc = 0;            ///< the load PC the prefetch targeted
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Probe without changing replacement state. Returns true on hit.
  bool contains(Addr line) const;

  /// Access a line: on hit, updates LRU and returns the line's metadata
  /// (prefetch consumption, dirty marking); on miss returns nullptr without
  /// allocating (controllers allocate on fill).
  LineMeta* access(Addr line);

  /// Fill a line (after a miss is serviced) into the set's first invalid
  /// way, else its LRU way; the evicted line's metadata is returned so the
  /// controller can account early-evicted prefetches. No-op (metadata
  /// refresh) if already present. One pass over the set.
  std::optional<std::pair<Addr, LineMeta>> fill(Addr line, const LineMeta& meta);

  u32 num_sets() const { return sets_; }
  u32 assoc() const { return cfg_.assoc; }
  u32 line_size() const { return cfg_.line_size; }

 private:
  struct Way {
    bool valid = false;
    Addr tag = 0;       // full line address (simplifies debugging)
    u64 lru = 0;        // larger == more recently used
    LineMeta meta{};
  };

  Way* set_begin(Addr line) {
    return &ways_[((line >> line_shift_) & (sets_ - 1)) * cfg_.assoc];
  }
  Way* lookup(Addr line);

  CacheConfig cfg_;
  u32 sets_;
  u32 line_shift_;  ///< log2(line_size); validate() requires a power of two
  u64 lru_clock_ = 0;
  std::vector<Way> ways_;  // sets_ * assoc, row-major by set
};

}  // namespace caps
