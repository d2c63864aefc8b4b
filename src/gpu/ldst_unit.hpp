// LD/ST unit: the SM-side L1 data cache controller.
//
// Demand line requests from warps queue here; one L1 tag access per cycle;
// prefetch requests use the port only when no demand is waiting (lower
// priority, Section V). Misses allocate/merge MSHR entries and go to the
// memory system; MSHR-full or crossbar-full block the queue head, which is
// what produces the whole-SM bursty stalls the paper measures. A blocked
// head is not re-probed until something it depends on changes (DESIGN.md
// §13, "Three exact skips").
//
// Load completions, eager wake-ups and demand misses are reported straight
// to the owning SM (on_load_done / on_prefetch_fill / on_demand_miss).
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
#include "mem/mshr.hpp"
#include "prefetch/prefetcher.hpp"

namespace caps {

class MemorySystem;
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

  /// Advance one cycle: drain replies, then one L1 port access.
  void cycle(Cycle now);

  bool idle() const;
  std::size_t demand_queue_size() const { return demand_q_.size(); }
  const SetAssocCache& l1() const { return l1_; }
  const Mshr<L1Access>& mshr() const { return mshr_; }

  /// Append queue/MSHR occupancy to a failure snapshot.
  void snapshot_into(MachineSnapshot& snap) const;

 private:
  /// What a probed demand head waits for; kCrossbar is a primary miss
  /// with a free MSHR entry, and kDone a head the probe retired.
  enum class Wait : u8 { kDone, kCrossbar, kMshr, kMerge };

  void process_replies(Cycle now);
  void process_completions(Cycle now);
  bool process_demand(Cycle now);  ///< returns true if the port was used
  Wait probe_demand(const L1Access& access, Cycle now);
  void process_prefetch(Cycle now);
  void complete_load(const L1Access& access);
  void pop_demand() {
    demand_q_.pop();
    ++gen_;
  }
  L1Access pop_prefetch() {
    ++gen_;
    return prefetch_q_.pop();
  }

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

  /// Bumped by every L1 fill and every queue pop: whatever a head's probe
  /// reads of the L1 and the MSHR changes only there (every MSHR allocation
  /// and merge pops its queue). A head probed at the current generation is
  /// not probed again.
  u64 gen_ = 0;
  u64 demand_gen_ = ~u64{0};  ///< generation demand_wait_ was probed at
  Wait demand_wait_ = Wait::kDone;
  u64 prefetch_gen_ = ~u64{0};  ///< generation the prefetch head was probed at
};

}  // namespace caps
