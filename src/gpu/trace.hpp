// The SM's single observation stream. Load issues, the PAS scheduler's
// marker and wake-up decisions, and prefetch outcomes all arrive as one
// TraceEvent type through one TraceSink; harness code (Fig. 1 analysis,
// both oracles) switches on `kind`. Each SM hands its LD/ST unit and its
// scheduler a `const TraceSink*`; null means tracing is off, which costs
// one branch per event site and no allocation.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace caps {

enum class TraceKind : u8 {
  kLoadIssue,        ///< a warp issued a global load
  kLeadingMark,      ///< CTA launch marked `warp_slot` as the leading warp
  kLeadingClear,     ///< marker cleared at the warp's first global access
  kEagerWakeup,      ///< pending warp promoted by a bound prefetch fill
  kForcedDemotion,   ///< ready trailing warp displaced by an eager wake-up
  kPrefetchTimely,   ///< demand hit a prefetched line resident in L1
  kPrefetchLate,     ///< demand merged into the prefetch's in-flight MSHR entry
  kPrefetchEarlyEvicted,  ///< prefetched line evicted before any demand use
};

/// Fields a kind does not describe keep their defaults:
///  - load issue: everything but `issue_cycle`; `line` is the first
///    coalesced line and `num_lines` the coalesced line count.
///  - scheduler kinds: `sm_id` and the warp coordinates (`warp_slot`,
///    `warp_in_cta`, `cta_id`, `cta_flat`). The Scheduler hooks carry no
///    clock, so `cycle` stays 0.
///  - prefetch outcomes: `sm_id`, `cycle` (when the outcome was
///    established), `pc` (the load the prefetch targeted), `line`,
///    `issue_cycle` (when the prefetch was enqueued) and `warp_slot` (the
///    consuming warp; kNoWarp for early evictions).
struct TraceEvent {
  TraceKind kind = TraceKind::kLoadIssue;
  u32 sm_id = 0;
  Cycle cycle = 0;
  i32 warp_slot = kNoWarp;
  u32 warp_in_cta = 0;
  Dim3 cta_id{};
  u32 cta_flat = 0;
  Addr pc = 0;
  Addr line = 0;
  u32 num_lines = 0;
  Cycle issue_cycle = 0;
};

using TraceSink = std::function<void(const TraceEvent&)>;

}  // namespace caps
