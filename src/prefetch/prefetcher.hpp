// Prefetch-engine interface. One engine instance lives in each SM and
// observes every global-load issue plus L1 demand misses; it emits
// line-granularity prefetch requests that the LD/ST unit injects into L1
// with lower priority than demand fetches.
#pragma once

#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace caps {

/// Everything an engine may observe about one warp-level global load/store
/// issue (after coalescing).
struct LoadIssueInfo {
  Addr pc = 0;
  u32 sm_id = 0;
  u32 cta_slot = 0;        ///< hardware CTA slot within the SM
  Dim3 cta_id{};           ///< logical CTA index within the grid
  u32 warp_slot = 0;       ///< SM-level warp slot (slots of a CTA are contiguous)
  u32 warp_in_cta = 0;     ///< warp index within its CTA
  u32 warps_in_cta = 1;    ///< total warps of this CTA
  std::span<const Addr> lines;  ///< coalesced line addresses, ascending
  bool is_load = true;
  bool indirect = false;   ///< data-dependent address (register-trace oracle)
  u32 iteration = 0;       ///< innermost-loop iteration (0 outside loops)
  Cycle cycle = 0;
};

/// A prefetch the engine wants issued.
struct PrefetchRequest {
  Addr line = 0;
  Addr pc = 0;                   ///< the load PC this prefetch targets
  i32 target_warp_slot = kNoWarp;  ///< warp to wake when the fill arrives
};

/// Bookkeeping common to all engines (energy model + sanity tests).
struct PrefetchEngineStats : CounterGroup<PrefetchEngineStats> {
  u64 table_reads = 0;
  u64 table_writes = 0;
  // CAPS-specific quality-control accounting (zero for other engines).
  u64 mispredictions = 0;        ///< predicted != demand address
  u64 excluded_indirect = 0;     ///< loads skipped: data-dependent address
  u64 excluded_uncoalesced = 0;  ///< loads skipped: > max coalesced lines
  u64 throttle_suppressed = 0;   ///< generations suppressed by throttle

  /// Counter registry (see stats.hpp): every u64 field above must be listed.
  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("table_reads", &PrefetchEngineStats::table_reads);
    f("table_writes", &PrefetchEngineStats::table_writes);
    f("mispredictions", &PrefetchEngineStats::mispredictions);
    f("excluded_indirect", &PrefetchEngineStats::excluded_indirect);
    f("excluded_uncoalesced", &PrefetchEngineStats::excluded_uncoalesced);
    f("throttle_suppressed", &PrefetchEngineStats::throttle_suppressed);
  }
};

class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  /// Called on every warp-level global memory issue. Emit prefetches into
  /// `out` (the LD/ST unit deduplicates against L1/MSHR state).
  virtual void on_load_issue(const LoadIssueInfo& info,
                             std::vector<PrefetchRequest>& out) = 0;

  /// Called on every L1 demand miss (used by next-line/macro-block engines).
  virtual void on_demand_miss(Addr /*line*/, Addr /*pc*/, i32 /*warp_slot*/,
                              std::vector<PrefetchRequest>& /*out*/) {}

  /// CTA slot lifecycle, so per-CTA state can be recycled.
  virtual void on_cta_launch(u32 /*cta_slot*/, const Dim3& /*cta_id*/,
                             u32 /*first_warp_slot*/, u32 /*num_warps*/) {}
  virtual void on_cta_complete(u32 /*cta_slot*/) {}

  virtual const char* name() const = 0;

  const PrefetchEngineStats& engine_stats() const { return stats_; }

 protected:
  /// Queue a prefetch of `line` for load `pc`, bound to `warp` (the warp
  /// woken when it fills).
  void emit(std::vector<PrefetchRequest>& out, Addr line, Addr pc, i32 warp) {
    out.push_back({.line = line, .pc = pc, .target_warp_slot = warp});
  }

  PrefetchEngineStats stats_;
};

/// Engine that never prefetches (the baseline).
class NullPrefetcher final : public Prefetcher {
 public:
  void on_load_issue(const LoadIssueInfo&, std::vector<PrefetchRequest>&) override {}
  const char* name() const override { return "BASE"; }
};

}  // namespace caps
