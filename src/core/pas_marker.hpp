// The leading-warp marker protocol of prefetch-aware scheduling (Section
// V-A), defined once for every PAS scheduler: CTA launch marks one warp of
// the CTA as its leading warp, and the marker is cleared at that warp's
// first global access, once its base address has been computed. The
// capsim-lint leading-marker rule keeps every marker write in src/core/pas_*.
#pragma once

#include "gpu/scheduler.hpp"

namespace caps {

/// Adds the marker protocol to scheduler policy `Base`. Subclasses call
/// mark_leading() from on_cta_launch(); the clear is on_global_access().
template <typename Base>
class LeadingMarkerProtocol : public Base {
 public:
  using Base::Base;

  void on_global_access(u32 slot) override {
    if (!this->warps_[slot].leading) return;
    this->warps_[slot].leading = false;
    this->emit(TraceKind::kLeadingClear, slot);
  }

  /// Leading-warp markers set (one per CTA launch); schedule-oracle hook.
  u64 markers_set() const { return markers_set_; }

 protected:
  void mark_leading(u32 slot) {
    this->warps_[slot].leading = true;
    ++markers_set_;
    this->emit(TraceKind::kLeadingMark, slot);
  }

 private:
  u64 markers_set_ = 0;
};

}  // namespace caps
