// Memory-access coalescer: merges the 32 per-lane byte addresses of a warp
// memory instruction into the minimal set of cache-line requests, exactly as
// the modeled hardware does (Section II-A: "up to 32 requests are merged
// when these requests can be encapsulated into one cache line request").
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/address_pattern.hpp"
#include "isa/kernel.hpp"

namespace caps {

class Coalescer {
 public:
  explicit Coalescer(u32 line_size) : line_size_(line_size) {}

  /// Compute the coalesced line addresses (ascending, deduplicated) for
  /// warp `warp_in_cta` of CTA `cta_id` executing access pattern `p`,
  /// writing them into `out` (cleared first). The caller owns `out` and
  /// reuses it across issues so the steady state never allocates
  /// (DESIGN.md §13); at most kWarpSize lines are produced.
  ///
  /// @param active_threads  threads of the CTA (lanes beyond are inactive)
  /// @param iter            innermost loop iteration
  /// @param cta_flat        flat CTA index (for global thread ids)
  void coalesce_into(const AddressPattern& p, const Dim3& block,
                     const Dim3& cta_id, u32 cta_flat, u32 warp_in_cta,
                     u32 iter, std::vector<Addr>& out) const;

 private:
  u32 line_size_;
};

}  // namespace caps
