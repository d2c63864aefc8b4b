// Warp-scheduler framework.
//
// The SM calls pick() up to issue_width times per cycle; the scheduler
// returns an issue-eligible warp slot under its policy. A span of cycles
// whose picks the LD/ST unit would only refuse, or which would find no
// warp, reaches it as one elide_refused() call. Eligibility (ready time,
// memory dependence, barrier state) is WarpContext::eligible(), an O(1)
// read of state the SM keeps, so policies stay purely about ordering.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/flat_deque.hpp"
#include "gpu/trace.hpp"
#include "gpu/warp.hpp"

namespace caps {

class Scheduler {
 public:
  /// The two trailing parameters do nothing. They keep the constructor
  /// that the benchmark's timing decorator calls (DESIGN.md §13,
  /// "Benchmark compile contract").
  Scheduler(const GpuConfig& cfg, std::vector<WarpContext>& warps,
            std::nullptr_t = nullptr, std::nullptr_t = nullptr)
      : cfg_(cfg), warps_(warps) {}
  virtual ~Scheduler() = default;

  virtual void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) = 0;
  virtual void on_warp_done(u32 /*slot*/) {}
  /// All outstanding loads of `slot` completed.
  virtual void on_loads_complete(u32 /*slot*/) {}
  /// A prefetch bound to `slot` filled L1 (PAS eager wake-up).
  virtual void on_prefetch_fill(u32 /*slot*/) {}
  /// The SM reports every global memory access `slot` issues. The PAS
  /// schedulers own the leading-warp marker protocol and clear the marker
  /// here; baseline schedulers ignore it.
  virtual void on_global_access(u32 /*slot*/) {}

  /// Route marker/wake-up events to `sink` (null disables), stamped with
  /// `sm_id`. The owning SM installs it once; the sink must outlive this.
  void set_trace_sink(const TraceSink* sink, u32 sm_id) {
    trace_ = sink;
    sm_id_ = sm_id;
  }

  /// Select one warp to issue, or kNoWarp. Called up to issue_width times
  /// per cycle; each returned warp is issued immediately by the SM.
  virtual i32 pick(Cycle now) = 0;

  /// The SM skipped cycles `from` through `to`: in each, its one pick would
  /// have returned a warp that the LD/ST unit refused, or found no warp,
  /// with no warp-state change and no ready_at passing in between. Leave
  /// the scheduler as those picks would have. The default replays pick()
  /// once per cycle, so a decorator that forwards only pick() stays exact.
  virtual void elide_refused(Cycle from, Cycle to) {
    for (Cycle c = from; c <= to; ++c) pick(c);
  }

  virtual const char* name() const = 0;

 protected:
  /// Emit a trace event for `slot`, annotated with its CTA coordinates.
  void emit(TraceKind kind, u32 slot) const {
    if (trace_ == nullptr) return;
    const WarpContext& w = warps_[slot];
    (*trace_)({.kind = kind, .sm_id = sm_id_,
               .warp_slot = static_cast<i32>(slot),
               .warp_in_cta = w.warp_in_cta, .cta_id = w.cta_id,
               .cta_flat = w.cta_flat});
  }

  const GpuConfig& cfg_;
  std::vector<WarpContext>& warps_;
  const TraceSink* trace_ = nullptr;
  u32 sm_id_ = 0;
};

/// Loose round-robin over all active warp slots.
class LrrScheduler final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void on_cta_launch(u32, u32, u32) override {}
  i32 pick(Cycle now) override;
  const char* name() const override { return "LRR"; }

 private:
  u32 rr_ = 0;
};

/// Greedy-then-oldest: keep issuing the current warp until it stalls, then
/// fall back to the oldest (by launch order) eligible warp.
class GtoScheduler : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void on_cta_launch(u32, u32, u32) override {}
  void on_warp_done(u32 slot) override;
  i32 pick(Cycle now) override;
  const char* name() const override { return "GTO"; }

 protected:
  /// Oldest (by launch order) eligible warp, optionally among leading
  /// warps only (PAS-GTO's first pass); kNoWarp if none.
  i32 oldest_eligible(Cycle now, bool leading_only) const;

  i32 greedy_ = kNoWarp;
};

/// Two-level scheduler [1,2]: a small ready queue is scheduled round-robin;
/// warps that stall on memory are demoted to the pending queue and promoted
/// back once their loads return: FIFO among the warps promote_first()
/// accepts, then FIFO among the rest. Which pending warps are promotable is
/// kept in masks that the events able to change it update (DESIGN.md §13).
class TwoLevelScheduler : public Scheduler {
 public:
  TwoLevelScheduler(const GpuConfig& cfg, std::vector<WarpContext>& warps)
      : Scheduler(cfg, warps), parked_(cfg.max_ctas_per_sm, 0) {
    CAPS_CHECK(cfg.max_warps_per_sm <= 64,
               "two-level warp masks hold at most 64 warp slots");
    // Both queues are bounded by the warp-slot count; pre-sizing them keeps
    // the per-cycle promotion/demotion churn off the heap (DESIGN.md §13).
    ready_.reserve(cfg.max_warps_per_sm);
    pending_.reserve(cfg.max_warps_per_sm);
  }
  void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) override;
  void on_warp_done(u32 slot) override;
  /// A pending warp whose last load returned may have become promotable.
  void on_loads_complete(u32 slot) override {
    if ((pending_bits_ & bit(slot)) != 0) evaluate(slot);
  }
  i32 pick(Cycle now) override;
  /// Closed form of the move-to-back rotation (DESIGN.md §13).
  void elide_refused(Cycle from, Cycle to) override;
  const char* name() const override { return "TLV"; }

  // Test introspection.
  const FlatDeque<u32>& ready_queue() const { return ready_; }
  const FlatDeque<u32>& pending_queue() const { return pending_; }
  /// Pending warps that were runnable and not waiting on memory when an
  /// event last evaluated them.
  u64 promotable_mask() const { return promotable_; }

 protected:
  /// Demote memory-stalled/barrier warps, then refill ready slots from the
  /// promotable mask. The ready scan runs only when some ready warp's state
  /// can have changed since the last call (DESIGN.md §13, "Exact skips").
  void maintain();
  /// Index into pending_ of the first promotable warp that promote_first()
  /// accepts, else of the first promotable warp; -1 if none.
  i32 next_promotion() const;
  /// Promotion priority: subclasses (PAS, ORCH) return false for warps that
  /// should yield to the others. Plain two-level promotion is FIFO.
  virtual bool promote_first(u32 /*slot*/) const { return true; }
  /// A hook moves `slot` into the ready queue, at the back or at the front
  /// (PAS leading warps); the next pick() re-checks it for demotion.
  void enqueue_ready(u32 slot, bool to_front);
  /// Move `slot` into the pending queue and evaluate it. Every entry into
  /// pending_ goes through here.
  void enqueue_pending(u32 slot, bool to_front);
  /// Take `slot` out of the pending queue; false if it was not there.
  bool take_pending(u32 slot);

  FlatDeque<u32> ready_;

 private:
  static u64 bit(u32 slot) { return u64{1} << slot; }
  /// Re-evaluate pending warp `slot` from its state: parked at a barrier,
  /// promotable (runnable and not waiting on memory), or neither.
  void evaluate(u32 slot);
  /// Take the warp at index `idx` out of pending_ and its masks; returns it.
  u32 remove_pending(u32 idx);

  FlatDeque<u32> pending_;
  u64 pending_bits_ = 0;  ///< the warps in pending_
  u64 promotable_ = 0;    ///< pending warps that promotion may take
  /// Per CTA slot: pending warps parked at a barrier. Only the issue of the
  /// CTA's last arriving warp releases them.
  std::vector<u64> parked_;
  /// Warp the last pick() returned. The SM issues it at once; the next
  /// maintain() re-checks it and the barrier of its CTA.
  i32 picked_ = kNoWarp;
  /// Some ready warp may need demoting: run the ready scan.
  bool recheck_ready_ = false;
};

/// Two-level variant used with the ORCH prefetcher [17]: promotion
/// interleaves consecutive warps into different scheduling groups (even
/// warp-in-CTA indices first) so one group prefetches for the other.
class OrchScheduler final : public TwoLevelScheduler {
 public:
  using TwoLevelScheduler::TwoLevelScheduler;
  const char* name() const override { return "ORCH-SCHED"; }

 protected:
  bool promote_first(u32 slot) const override {
    return warps_[slot].warp_in_cta % 2 == 0;
  }
};

}  // namespace caps
