#include "gpu/scheduler.hpp"

#include <algorithm>
#include <bit>

namespace caps {

// ---------------------------------------------------------------- LRR ----

i32 LrrScheduler::pick(Cycle now) {
  const u32 n = cfg_.max_warps_per_sm;
  for (u32 i = 0; i < n; ++i) {
    const u32 slot = (rr_ + 1 + i) % n;
    if (warps_[slot].eligible(now)) {
      rr_ = slot;
      return static_cast<i32>(slot);
    }
  }
  return kNoWarp;
}

// ---------------------------------------------------------------- GTO ----

void GtoScheduler::on_warp_done(u32 slot) {
  if (greedy_ == static_cast<i32>(slot)) greedy_ = kNoWarp;
}

i32 GtoScheduler::oldest_eligible(Cycle now, bool leading_only) const {
  i32 best = kNoWarp;
  u64 best_age = ~0ULL;
  for (u32 slot = 0; slot < cfg_.max_warps_per_sm; ++slot) {
    const WarpContext& w = warps_[slot];
    if ((leading_only && !w.leading) || !w.eligible(now)) continue;
    if (w.launch_order < best_age) {
      best_age = w.launch_order;
      best = static_cast<i32>(slot);
    }
  }
  return best;
}

i32 GtoScheduler::pick(Cycle now) {
  if (greedy_ != kNoWarp && warps_[static_cast<u32>(greedy_)].eligible(now))
    return greedy_;
  greedy_ = oldest_eligible(now, /*leading_only=*/false);
  return greedy_;
}

// ---------------------------------------------------------- Two-level ----

void TwoLevelScheduler::on_cta_launch(u32 /*cta_slot*/, u32 first_warp,
                                      u32 num_warps) {
  for (u32 w = first_warp; w < first_warp + num_warps; ++w) {
    if (ready_.size() < cfg_.ready_queue_size)
      enqueue_ready(w, /*to_front=*/false);
    else
      enqueue_pending(w, /*to_front=*/false);
  }
}

void TwoLevelScheduler::on_warp_done(u32 slot) {
  if (take_pending(slot)) return;
  auto it = std::find(ready_.begin(), ready_.end(), slot);
  if (it != ready_.end()) ready_.erase(it);
}

void TwoLevelScheduler::enqueue_ready(u32 slot, bool to_front) {
  if (to_front)
    ready_.push_front(slot);
  else
    ready_.push_back(slot);
  recheck_ready_ = true;
}

void TwoLevelScheduler::enqueue_pending(u32 slot, bool to_front) {
  if (to_front)
    pending_.push_front(slot);
  else
    pending_.push_back(slot);
  pending_bits_ |= bit(slot);
  evaluate(slot);
}

bool TwoLevelScheduler::take_pending(u32 slot) {
  if ((pending_bits_ & bit(slot)) == 0) return false;
  const auto it = std::find(pending_.begin(), pending_.end(), slot);
  remove_pending(static_cast<u32>(it - pending_.begin()));
  return true;
}

u32 TwoLevelScheduler::remove_pending(u32 idx) {
  const u32 slot = pending_[idx];
  pending_.erase(pending_.begin() + idx);
  pending_bits_ &= ~bit(slot);
  promotable_ &= ~bit(slot);
  parked_[warps_[slot].cta_slot] &= ~bit(slot);
  return slot;
}

void TwoLevelScheduler::evaluate(u32 slot) {
  const WarpContext& w = warps_[slot];
  promotable_ &= ~bit(slot);
  if (w.status == WarpStatus::kAtBarrier)
    parked_[w.cta_slot] |= bit(slot);
  else if (w.runnable() && !w.mem_wait)
    promotable_ |= bit(slot);
}

i32 TwoLevelScheduler::next_promotion() const {
  i32 fallback = -1;
  u64 unseen = promotable_;
  for (u32 i = 0; unseen != 0; ++i) {
    const u32 slot = pending_[i];
    if ((unseen & bit(slot)) == 0) continue;
    unseen &= ~bit(slot);
    if (promote_first(slot)) return static_cast<i32>(i);
    if (fallback < 0) fallback = static_cast<i32>(i);
  }
  return fallback;
}

void TwoLevelScheduler::maintain() {
  // Demote ready warps that stalled on memory (mem_wait is set only on
  // active warps) or are parked at a barrier. Barrier warps MUST leave the
  // ready queue: the warps that will release the barrier may be waiting in
  // the pending queue, and holding ready slots for blocked warps would
  // deadlock the CTA.
  const auto demotable = [this](u32 slot) {
    return warps_[slot].mem_wait ||
           warps_[slot].status == WarpStatus::kAtBarrier;
  };
  // Only an issue can make a ready warp demotable, and only the picked warp
  // issues. Its issue may also release its CTA's barrier, which is the one
  // way a parked pending warp leaves kAtBarrier.
  if (picked_ != kNoWarp) {
    const u32 slot = static_cast<u32>(picked_);
    picked_ = kNoWarp;
    u64& parked = parked_[warps_[slot].cta_slot];
    for (u64 m = parked; m != 0; m &= m - 1) {
      const auto w = static_cast<u32>(std::countr_zero(m));
      if (warps_[w].status == WarpStatus::kAtBarrier) continue;
      parked &= ~bit(w);
      evaluate(w);
    }
    if (demotable(slot)) recheck_ready_ = true;
  }
  if (recheck_ready_) {
    recheck_ready_ = false;
    for (auto it = ready_.begin(); it != ready_.end();) {
      const u32 slot = *it;
      if (demotable(slot)) {
        it = ready_.erase(it);
        enqueue_pending(slot, /*to_front=*/false);
      } else {
        ++it;
      }
    }
  }
  // Refill from pending.
  while (promotable_ != 0 && ready_.size() < cfg_.ready_queue_size)
    ready_.push_back(remove_pending(static_cast<u32>(next_promotion())));
}

i32 TwoLevelScheduler::pick(Cycle now) {
  maintain();
  if (ready_.empty()) return kNoWarp;
  // Move-to-back round robin: scan from the front, rotate the issued warp
  // to the back. Front insertions (PAS leading warps) are thereby the
  // highest-priority next picks, and fairness is stable under the queue
  // churn that demotion/promotion causes.
  const u32 n = static_cast<u32>(ready_.size());
  for (u32 i = 0; i < n; ++i) {
    const u32 slot = ready_.front();
    ready_.pop_front();
    ready_.push_back(slot);
    if (warps_[slot].eligible(now)) {
      picked_ = static_cast<i32>(slot);
      return picked_;
    }
  }
  return kNoWarp;
}

void TwoLevelScheduler::elide_refused(Cycle from, Cycle to) {
  // Only the first pick can change the queues: the warps it and the later
  // picks return are refused, so maintain() has nothing new to re-check.
  // Pick k of the span then returns the ((k-1) mod m)-th of the m eligible
  // ready warps, at position p in the queue, and leaves the queue rotated by
  // ((k-1) / m) * n + p + 1 over all n ready warps: p + 1 modulo n, since
  // the whole turns restore it.
  maintain();
  const auto n = static_cast<u32>(ready_.size());
  const auto eligible = [&](u32 i) { return warps_[ready_[i]].eligible(from); };
  u32 m = 0;
  for (u32 i = 0; i < n; ++i)
    if (eligible(i)) ++m;
  if (m == 0) return;  // every pick rotates the queue a full turn
  const u64 k = to - from + 1;
  u64 target = (k - 1) % m;
  u32 p = 0;
  for (;; ++p) {
    if (!eligible(p)) continue;
    if (target == 0) break;
    --target;
  }
  picked_ = static_cast<i32>(ready_[p]);
  for (u32 r = 0; r < (p + 1) % n; ++r) {
    ready_.push_back(ready_.front());
    ready_.pop_front();
  }
}

}  // namespace caps
