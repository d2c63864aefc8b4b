#include "core/pas_scheduler.hpp"

#include <cstddef>

namespace caps {

void PasScheduler::on_cta_launch(u32 cta_slot, u32 first_warp,
                                 u32 num_warps) {
  // Mark the CTA's first warp as its leading warp (one-bit marker).
  mark_leading(first_warp);

  // Leading warp jumps the queue (Fig. 8b): front of the ready queue when
  // a slot is free, otherwise front of the pending queue so the next
  // promotion takes it. (Forcibly displacing a resident ready warp measures
  // worse on barrier-synchronized kernels: the displaced trailing warp
  // delays its whole CTA's barrier.)
  if (ready_.size() < cfg_.ready_queue_size)
    enqueue_ready(first_warp, /*to_front=*/true);
  else
    enqueue_pending(first_warp, /*to_front=*/true);

  // Trailing warps queue as in any two-level scheduler.
  TwoLevelScheduler::on_cta_launch(cta_slot, first_warp + 1, num_warps - 1);
}

void PasScheduler::on_prefetch_fill(u32 slot) {
  if (!eager_wakeup_) return;
  if (!warps_[slot].runnable()) return;
  if (!take_pending(slot)) return;  // already ready (or done): nothing to do
  if (ready_.size() >= cfg_.ready_queue_size) {
    // Forcibly push the last trailing ready warp back to pending to make
    // room; the tail when all ready warps are leading.
    std::size_t victim = ready_.size() - 1;
    for (std::size_t i = ready_.size(); i-- > 0;) {
      if (!warps_[ready_[i]].leading) {
        victim = i;
        break;
      }
    }
    emit(TraceKind::kForcedDemotion, ready_[victim]);
    enqueue_pending(ready_[victim], /*to_front=*/true);
    ready_.erase(victim);
  }
  enqueue_ready(slot, /*to_front=*/false);
  ++wakeup_promotions_;
  emit(TraceKind::kEagerWakeup, slot);
}

}  // namespace caps
