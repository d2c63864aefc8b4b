// Per-warp and per-CTA execution state inside an SM.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace caps {

enum class WarpStatus : u8 {
  kInvalid,    ///< slot not in use
  kActive,     ///< executing
  kAtBarrier,  ///< waiting at a CTA barrier
  kDone,       ///< ran EXIT
};

struct LoopFrame {
  u32 begin_idx = 0;  ///< instruction index of kLoopBegin
  u32 remaining = 0;  ///< iterations left (including current)
  u32 iter = 0;       ///< completed iterations (0 on first pass)
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
  std::vector<LoopFrame> loops;
  bool leading = false;         ///< PAS leading-warp marker
  u64 launch_order = 0;         ///< global age for GTO

  bool runnable() const { return status == WarpStatus::kActive; }

  /// The one definition of issue eligibility: the warp may issue at `now`.
  /// mem_wait is set only on active warps.
  bool eligible(Cycle now) const {
    return runnable() && ready_at <= now && !mem_wait;
  }

  /// Return the context to its default-constructed state while keeping the
  /// loop stack's capacity, so re-launching a warp slot for a new CTA does
  /// not re-allocate (DESIGN.md §13). Use instead of `wc = WarpContext{}`.
  void reset() {
    status = WarpStatus::kInvalid;
    cta_slot = 0;
    warp_in_cta = 0;
    cta_id = Dim3{};
    cta_flat = 0;
    pc_idx = 0;
    ready_at = 0;
    outstanding_loads = 0;
    mem_wait = false;
    stalled_lines = 0;
    loops.clear();
    leading = false;
    launch_order = 0;
  }

  /// Innermost-loop iteration counter (0 outside loops).
  u32 current_iteration() const {
    return loops.empty() ? 0 : loops.back().iter;
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
