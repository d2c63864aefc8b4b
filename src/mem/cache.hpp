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

/// Result of a cache probe/access.
enum class CacheOutcome : u8 { kHit, kMiss };

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Probe without changing replacement state. Returns true on hit.
  bool contains(Addr line) const;

  /// Access (read) a line: on hit, updates LRU and returns kHit; on miss
  /// returns kMiss without allocating (controllers allocate on fill).
  CacheOutcome access(Addr line);

  /// Fill a line (after a miss is serviced). Evicts LRU if the set is full;
  /// the evicted line's metadata is returned so the controller can account
  /// early-evicted prefetches. No-op (metadata refresh) if already present.
  std::optional<std::pair<Addr, LineMeta>> fill(Addr line, const LineMeta& meta);

  /// Metadata access for the prefetch-consumption accounting.
  LineMeta* find_meta(Addr line);

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

  u32 set_index(Addr line) const;
  Way* lookup(Addr line);
  const Way* lookup(Addr line) const;

  CacheConfig cfg_;
  u32 sets_;
  u64 lru_clock_ = 0;
  std::vector<Way> ways_;  // sets_ * assoc, row-major by set
};

}  // namespace caps
