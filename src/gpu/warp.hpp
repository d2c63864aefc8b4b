// Per-warp and per-CTA execution state inside an SM.
#pragma once

#include <array>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace caps {

enum class WarpStatus : u8 {
  kInvalid,    ///< slot not in use
  kActive,     ///< executing
  kAtBarrier,  ///< waiting at a CTA barrier
  kDone,       ///< ran EXIT
};

struct WarpContext {
  WarpStatus status = WarpStatus::kInvalid;
  u32 cta_slot = 0;
  u32 warp_in_cta = 0;
  Dim3 cta_id{};
  u32 cta_flat = 0;             ///< flatten(cta_id, grid), set at CTA launch
  u32 pc_idx = 0;               ///< index into the kernel instruction vector
  Cycle ready_at = 0;           ///< earliest cycle the warp may issue again
  u32 outstanding_loads = 0;    ///< in-flight coalesced line loads
  /// The current instruction waits on outstanding loads and the warp is
  /// active. The SM recomputes it wherever one of those inputs changes.
  bool mem_wait = false;
  /// Line count of the memory instruction the LD/ST unit last refused;
  /// 0 when the current instruction has not been refused.
  u32 stalled_lines = 0;
  /// Completed iterations of each open loop, outermost first: the first
  /// loop_depth entries.
  std::array<u32, kMaxLoopDepth> loops{};
  u32 loop_depth = 0;
  bool leading = false;         ///< PAS leading-warp marker
  u64 launch_order = 0;         ///< global age for GTO

  bool runnable() const { return status == WarpStatus::kActive; }

  /// The one definition of issue eligibility: the warp may issue at `now`.
  /// mem_wait is set only on active warps.
  bool eligible(Cycle now) const {
    return runnable() && ready_at <= now && !mem_wait;
  }

  /// Innermost-loop iteration counter (0 outside loops).
  u32 current_iteration() const {
    return loop_depth == 0 ? 0 : loops[loop_depth - 1];
  }
};

struct CtaSlot {
  bool active = false;
  Dim3 cta_id{};
  u32 first_warp_slot = 0;
  u32 num_warps = 0;
  u32 warps_done = 0;
  u32 barrier_arrived = 0;
};

}  // namespace caps
