// PAS: the Prefetch-Aware Scheduler (Section V-A).
//
// A two-level scheduler with two changes:
//  1. Leading-warp priority — one warp per CTA carries a one-bit leading
//     marker; leading warps enter the *front* of the ready queue and are
//     promoted out of the pending queue ahead of trailing warps, so every
//     CTA's base address is computed as early as possible (Fig. 8b).
//  2. Eager warp wake-up — when a prefetch bound to a pending warp fills
//     L1, that warp is promoted immediately; if the ready queue is full, a
//     trailing ready warp is forcibly pushed back to the pending queue.
#pragma once

#include "core/pas_marker.hpp"

namespace caps {

class PasScheduler final : public LeadingMarkerProtocol<TwoLevelScheduler> {
 public:
  PasScheduler(const GpuConfig& cfg, std::vector<WarpContext>& warps,
               bool eager_wakeup = true)
      : LeadingMarkerProtocol(cfg, warps), eager_wakeup_(eager_wakeup) {}

  void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) override;
  void on_prefetch_fill(u32 slot) override;
  const char* name() const override { return "PAS"; }

  // Read-only introspection for the schedule oracle (DESIGN.md §12).
  /// Pending warps promoted to ready by an eager wake-up.
  u64 wakeup_promotions() const { return wakeup_promotions_; }
  /// Ready trailing warps displaced back to pending by an eager wake-up.
  u64 forced_demotions() const { return forced_demotions_; }

 protected:
  /// Leading warps are promoted ahead of trailing warps.
  bool promote_first(u32 slot) const override { return warps_[slot].leading; }

 private:
  bool eager_wakeup_;
  u64 wakeup_promotions_ = 0;
  u64 forced_demotions_ = 0;
};

}  // namespace caps
