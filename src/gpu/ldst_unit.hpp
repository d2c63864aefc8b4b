// LD/ST unit: the SM-side L1 data cache controller.
//
// Demand line requests from warps queue here; one L1 tag access per cycle;
// prefetch requests use the port only when no demand is waiting (lower
// priority, Section V). Misses allocate/merge MSHR entries and go to the
// memory system; MSHR-full or crossbar-full block the queue head, which is
// what produces the whole-SM bursty stalls the paper measures. A unit whose
// port only stalled is not ticked again until what a head waits for is
// there, and a woken head is simply probed again: a probe that does not
// retire its head changes nothing (DESIGN.md §13, "Stall-only sleep").
//
// Load completions, eager wake-ups and demand misses are reported straight
// to the owning SM (on_load_done / on_prefetch_fill / on_demand_miss).
#pragma once

#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/sleep_ledger.hpp"
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
  /// `trace` (may be null) receives the prefetch-outcome events. The L1,
  /// its MSHR and the unit's rings carve their slots from `mem`'s region.
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
  /// prefetch head puts the unit to sleep until what a head waits for is
  /// there: a reply at the head of its reply-crossbar lane, the next L1-hit
  /// completion falling due, a push into an empty queue, or room on the
  /// request-crossbar lane a blocked head waits on.
  bool due(Cycle now) const {
    return ledger_.due(now) || mem_.reply_arrived(sm_id_, now) ||
           (lane_wait_ && (mem_.lane_can_accept(lanes_[0]) ||
                           mem_.lane_can_accept(lanes_[1])));
  }

  /// Advance one cycle: count the stalls of the cycles slept since the last
  /// call, drain replies, then one L1 port access.
  void cycle(Cycle now);

  /// Add to `s` the stalls of the cycles slept before cycle `now`.
  void add_slept(SmStats& s, Cycle now) const { ledger_.add_to(s, now); }

  bool idle() const;
  std::size_t demand_queue_size() const { return demand_q_.size(); }
  const SetAssocCache<L1LineMeta>& l1() const { return l1_; }
  const Mshr<L1Access>& mshr() const { return mshr_; }

  /// Append queue/MSHR occupancy to a failure snapshot.
  void snapshot_into(MachineSnapshot& snap) const;

 private:
  void process_replies(Cycle now);
  void process_completions(Cycle now);
  /// The L1 port probe of a queued head; each returns the stall counter it
  /// bumped, or null when the head moved on.
  u64 SmStats::*process_demand(Cycle now);
  u64 SmStats::*process_prefetch(Cycle now);
  /// Put the unit to sleep after a tick whose port found each head blocked
  /// on the given stall counter, or idle (null).
  void sleep(Cycle now, u64 SmStats::*demand, u64 SmStats::*prefetch);
  void complete_load(const L1Access& access, Cycle now);
  /// Set whether room on lanes_ wakes this unit, and list or withdraw it on
  /// their room-wait lists to match.
  void wait_lanes(bool waits);

  const GpuConfig& cfg_;
  StreamingMultiprocessor& sm_;
  u32 sm_id_;
  MemorySystem& mem_;
  SmStats& stats_;

  SetAssocCache<L1LineMeta> l1_;
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
  BoundedQueue<Completion> completions_;

  const TraceSink* trace_;

  // Stall-only sleep, until the next L1-hit completion at the latest.
  SleepLedger<SmStats> ledger_;
  bool lane_wait_ = false;  ///< also wake when lanes_ have room; listed
                            ///< on their room-wait lists while set
  u32 lanes_[2] = {0, 0};   ///< lanes of the demand and prefetch heads
};

}  // namespace caps
