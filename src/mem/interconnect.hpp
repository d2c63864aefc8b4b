// SM <-> memory-partition interconnect, modeled as two crossbars (request
// and reply) with fixed traversal latency, bounded per-destination queues,
// and one-message-per-destination-per-cycle drain bandwidth.
#pragma once

#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/stats.hpp"
#include "mem/memory_request.hpp"

namespace caps {

/// Request-crossbar counters; MemorySystem keeps them (the reply crossbar
/// is not reported).
struct XbarStats : CounterGroup<XbarStats> {
  u64 messages = 0;
  u64 total_queue_delay = 0;  ///< cycles messages spent queued past latency
  u64 inject_stalls = 0;      ///< push attempts refused because queue full

  /// Counter registry (see stats.hpp): every u64 field above must be listed.
  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("messages", &XbarStats::messages);
    f("total_queue_delay", &XbarStats::total_queue_delay);
    f("inject_stalls", &XbarStats::inject_stalls);
  }
};

/// One direction of the crossbar: N sources -> M destination queues.
class Crossbar {
 public:
  Crossbar(u32 num_dests, u32 latency, u32 queue_capacity);

  /// Room toward `dest`: a pop makes it and a push takes it, so a sender
  /// blocked on a full lane waits for this to hold (DESIGN.md §13).
  bool can_accept(u32 dest) const { return !queues_[dest].full(); }

  /// Inject a message toward `dest`; visible to pop() after `latency` cycles.
  void push(u32 dest, const MemRequest& req, Cycle now);

  /// Pop at most one arrived message for `dest` (per-destination bandwidth).
  bool pop(u32 dest, Cycle now, MemRequest& out) {
    if (!arrived(dest, now)) return false;
    out = queues_[dest].front().req;
    queues_[dest].pop_front();
    return true;
  }

  /// Whether a message for `dest` has arrived by `now`.
  bool arrived(u32 dest, Cycle now) const { return head_at(dest) <= now; }

  /// The cycle the head message for `dest` arrives; kNever if none.
  Cycle head_at(u32 dest) const {
    CAPS_CHECK(dest < queues_.size(), "crossbar read of invalid destination");
    const auto& q = queues_[dest];
    return q.empty() ? kNever : q.front().ready_at;
  }

  bool idle() const;

  u32 num_dests() const { return static_cast<u32>(queues_.size()); }
  std::size_t queued(u32 dest) const { return queues_[dest].size(); }
  /// Every lane's capacity (all lanes have the same).
  std::size_t queue_capacity() const { return queues_[0].capacity(); }

 private:
  struct InFlight {
    Cycle ready_at;
    MemRequest req;
  };

  u32 latency_;
  std::vector<BoundedQueue<InFlight>> queues_;
};

}  // namespace caps
