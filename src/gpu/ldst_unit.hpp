// LD/ST unit: the SM-side L1 data cache controller.
//
// Demand line requests from warps queue here; one L1 tag access per cycle;
// prefetch requests use the port only when no demand is waiting (lower
// priority, Section V). Misses allocate/merge MSHR entries and go to the
// memory system; MSHR-full or crossbar-full block the queue head, which is
// what produces the whole-SM bursty stalls the paper measures. A unit whose
// port only stalled is not ticked again until an event can change that, and
// a woken head is simply probed again: a probe that does not retire its head
// changes nothing (DESIGN.md §13, "Stall-only sleep").
//
// Load completions, eager wake-ups, demand misses and demand-queue pops are
// reported straight to the owning SM (on_load_done / on_prefetch_fill /
// on_demand_miss / wake_issue).
#pragma once

#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/flat_deque.hpp"
#include "gpu/sm_stats.hpp"
#include "gpu/trace.hpp"
#include "mem/cache.hpp"
#include "mem/memory_request.hpp"
#include "mem/memory_system.hpp"
#include "mem/mshr.hpp"
#include "prefetch/prefetcher.hpp"

namespace caps {

class StreamingMultiprocessor;

class LdStUnit {
 public:
  /// `trace` (may be null) receives the prefetch-outcome events.
  LdStUnit(const GpuConfig& cfg, StreamingMultiprocessor& sm, u32 sm_id,
           MemorySystem& mem, SmStats& stats, const TraceSink* trace);

  /// Room in the demand queue for `n` more line accesses?
  bool can_accept(u32 n) const {
    return demand_q_.size() + n <= demand_q_.capacity();
  }

  void push_demand(const L1Access& access);

  /// Enqueue engine-generated prefetches (deduplicated against the queue;
  /// dropped with accounting when the prefetch queue is full).
  void push_prefetches(const std::vector<PrefetchRequest>& reqs, Cycle now);

  /// Whether cycle(now) can do more than repeat the stall counts of the
  /// last tick. A tick whose L1 port neither moved the demand head nor the
  /// prefetch head puts the unit to sleep until an event it names: a reply
  /// at the head of its reply-crossbar lane, the next L1-hit completion
  /// falling due, a push, or a pop on a request-crossbar lane a blocked
  /// head waits on.
  bool due(Cycle now) const {
    return now >= wake_at_ || mem_.reply_arrived(sm_id_, now) ||
           (lane_wait_ && (mem_.request_pops(lanes_[0]) != lane_pops_[0] ||
                           mem_.request_pops(lanes_[1]) != lane_pops_[1]));
  }

  /// Advance one cycle: count the stalls of the cycles slept since the last
  /// call, drain replies, then one L1 port access.
  void cycle(Cycle now);

  /// Add to `s` the stalls of the cycles slept before cycle `now`.
  void add_slept(SmStats& s, Cycle now) const;

  bool idle() const;
  std::size_t demand_queue_size() const { return demand_q_.size(); }
  const SetAssocCache& l1() const { return l1_; }
  const Mshr<L1Access>& mshr() const { return mshr_; }

  /// Append queue/MSHR occupancy to a failure snapshot.
  void snapshot_into(MachineSnapshot& snap) const;

 private:
  /// What a queue head waits for; kCrossbar is a miss with a free MSHR
  /// entry, kDone a head that moved on and kIdle an empty queue.
  enum class Wait : u8 { kDone, kIdle, kCrossbar, kMshr, kMerge };

  void process_replies(Cycle now);
  void process_completions(Cycle now);
  Wait process_demand(Cycle now);
  Wait process_prefetch(Cycle now);
  /// Put the unit to sleep after a tick whose port found `demand` and
  /// `prefetch` blocked or idle.
  void sleep(Cycle now, Wait demand, Wait prefetch);
  void complete_load(const L1Access& access, Cycle now);
  /// Every pop changes the room the SM's issue stage sees.
  void pop_demand(Cycle now);

  const GpuConfig& cfg_;
  StreamingMultiprocessor& sm_;
  u32 sm_id_;
  MemorySystem& mem_;
  SmStats& stats_;

  SetAssocCache l1_;
  Mshr<L1Access> mshr_;
  BoundedQueue<L1Access> demand_q_;
  BoundedQueue<L1Access> prefetch_q_;
  std::vector<L1Access> fill_scratch_;  ///< reused by process_replies()

  /// L1-hit completions in flight: (ready cycle, access). The one L1 port
  /// retires at most one hit per cycle, always l1_hit_latency ahead, so
  /// ready cycles strictly increase and arrival order is completion order.
  struct Completion {
    Cycle ready_at;
    L1Access access;
  };
  FlatDeque<Completion> completions_;

  const TraceSink* trace_;

  // Stall-only sleep. Awake, wake_at_ is 0.
  Cycle wake_at_ = 0;       ///< the next L1-hit completion
  bool lane_wait_ = false;  ///< also wake when lanes_ pop
  u32 lanes_[2] = {0, 0};   ///< lanes of the demand and prefetch heads
  u64 lane_pops_[2] = {0, 0};
  Cycle slept_from_ = 0;    ///< first cycle slept through
  u64 SmStats::*demand_stall_ = nullptr;  ///< counted once per slept cycle
  bool prefetch_stall_ = false;  ///< pf_stall_structural, once per slept cycle
};

}  // namespace caps
