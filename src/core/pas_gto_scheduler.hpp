// PAS-GTO: the paper's sketch of applying prefetch-aware scheduling to a
// greedy-then-oldest scheduler (Section V-A): "in the GTO, ... our approach
// can be applied by prioritizing the leading warps so that the leading
// warps are greedily scheduled until they compute the base address. Then
// the trailing warps can continue to execute."
//
// Policy: if any leading warp (one per CTA, marker cleared at its first
// global access) is eligible, greedily schedule the oldest of them;
// otherwise behave exactly like GTO. Included as the paper's proposed
// extension; Fig. 14b-style comparisons can be run with
// SchedulerKind::kGto vs this class via make_policies overrides.
#pragma once

#include "core/pas_marker.hpp"

namespace caps {

class PasGtoScheduler final : public LeadingMarkerProtocol<GtoScheduler> {
 public:
  using LeadingMarkerProtocol::LeadingMarkerProtocol;

  void on_cta_launch(u32 /*cta_slot*/, u32 first_warp,
                     u32 /*num_warps*/) override {
    mark_leading(first_warp);
  }

  i32 pick(Cycle now) override {
    // Leading warps first (oldest wins), greedily; otherwise plain GTO.
    const i32 leader = oldest_eligible(now, /*leading_only=*/true);
    if (leader == kNoWarp) return GtoScheduler::pick(now);
    greedy_ = leader;
    return leader;
  }

  const char* name() const override { return "PAS-GTO"; }
};

}  // namespace caps
