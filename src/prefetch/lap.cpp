#include "prefetch/lap.hpp"

#include <bit>

namespace caps {

void LocalityAwarePrefetcher::on_demand_miss(Addr line, Addr pc, i32 warp_slot,
                                             std::vector<PrefetchRequest>& out) {
  const u32 lines_per_block = cfg_.baseline_pf.macro_block_lines;
  const Addr block_bytes =
      static_cast<Addr>(lines_per_block) * cfg_.l1d.line_size;
  const Addr block_base = line - (line % block_bytes);
  const u32 line_idx = static_cast<u32>((line - block_base) / cfg_.l1d.line_size);

  ++stats_.table_reads;
  BlockState* b = blocks_.find(block_base);
  if (b == nullptr) b = &blocks_.insert(block_base);
  b->miss_mask |= (u64{1} << line_idx);
  ++stats_.table_writes;

  if (static_cast<u32>(std::popcount(b->miss_mask)) <
      cfg_.baseline_pf.lap_miss_threshold)
    return;

  // Prefetch every not-yet-missed line of the macro block, then retire the
  // block so it doesn't retrigger.
  for (u32 i = 0; i < lines_per_block; ++i) {
    if (b->miss_mask & (u64{1} << i)) continue;
    emit(out, block_base + static_cast<Addr>(i) * cfg_.l1d.line_size, pc,
         warp_slot);
  }
  blocks_.erase(block_base);
}

}  // namespace caps
