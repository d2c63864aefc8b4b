// LD/ST unit: the SM-side L1 data cache controller.
//
// Demand line requests from warps queue here; one L1 tag access per cycle;
// prefetch requests use the port only when no demand is waiting (lower
// priority, Section V). Misses allocate/merge MSHR entries and go to the
// memory system; MSHR-full or crossbar-full block the queue head, which is
// what produces the whole-SM bursty stalls the paper measures.
//
// Load completions, eager wake-ups and demand misses are reported straight
// to the owning SM (on_load_done / on_prefetch_fill / on_demand_miss).
#pragma once

#include <functional>  // std::greater
#include <queue>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/diag.hpp"
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
  void process_replies(Cycle now);
  void process_completions(Cycle now);
  bool process_demand(Cycle now);  ///< returns true if the port was used
  void process_prefetch(Cycle now);
  void complete_load(const L1Access& access);

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

  /// L1-hit completions in flight: (ready cycle, access).
  struct Completion {
    Cycle ready_at;
    L1Access access;
    bool operator>(const Completion& o) const { return ready_at > o.ready_at; }
  };
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions_;

  const TraceSink* trace_;

  u64 next_req_id_ = 1;
};

}  // namespace caps
