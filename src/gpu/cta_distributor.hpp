// CTA work distributor (Section II-B / Fig. 3): CTAs are handed to SMs one
// at a time in round-robin order until every SM holds its maximum; after
// that, assignment is purely demand-driven — whichever SM frees a slot first
// receives the next CTA. This is the mechanism that places non-consecutive
// CTAs on the same SM and breaks naive inter-warp stride prefetching.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace caps {

struct CtaAssignment {
  u32 cta_flat;
  u32 sm_id;
  Cycle cycle;
};

class CtaDistributor {
 public:
  CtaDistributor(const Dim3& grid, u32 num_sms);

  bool all_dispatched() const { return next_cta_ >= total_; }
  u32 remaining() const { return total_ - next_cta_; }

  /// Record that the next CTA went to `sm`; advances the queue.
  Dim3 dispatch(u32 sm, Cycle now);

  /// Round-robin cursor: which SM should be offered a CTA next. The GPU
  /// advances the cursor on every successful initial-fill dispatch so the
  /// first wave is distributed one CTA at a time.
  u32 rr_cursor() const { return rr_cursor_; }
  void advance_cursor() { rr_cursor_ = (rr_cursor_ + 1) % num_sms_; }

  const std::vector<CtaAssignment>& log() const { return log_; }

 private:
  Dim3 grid_;
  u32 num_sms_;
  u32 total_;
  u32 next_cta_ = 0;
  u32 rr_cursor_ = 0;
  std::vector<CtaAssignment> log_;
};

}  // namespace caps
