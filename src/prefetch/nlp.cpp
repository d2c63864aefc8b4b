#include "prefetch/nlp.hpp"

namespace caps {

void NextLinePrefetcher::on_demand_miss(Addr line, Addr pc, i32 warp_slot,
                                        std::vector<PrefetchRequest>& out) {
  emit(out, line + cfg_.l1d.line_size, pc, warp_slot);
}

}  // namespace caps
