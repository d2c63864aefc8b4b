// The off-SM memory hierarchy: request crossbar -> L2 partitions -> DRAM
// channels -> reply crossbar.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/stats.hpp"
#include "common/wake_calendar.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/l2_partition.hpp"
#include "mem/memory_request.hpp"

namespace caps {

class MemorySystem {
 public:
  explicit MemorySystem(const GpuConfig& cfg);

  /// Which partition services a line (chunk-interleaved so DRAM rows stay
  /// within one channel and streaming keeps row-buffer locality).
  u32 partition_of(Addr line) const {
    return static_cast<u32>((line / cfg_.partition_chunk_bytes) %
                            cfg_.num_l2_partitions);
  }

  /// Whether the request network can take a message for this line now.
  bool can_accept(Addr line) const {
    return req_xbar_.can_accept(partition_of(line));
  }
  void note_inject_stall() { ++req_stats_.inject_stalls; }

  /// A sleeping LD/ST unit whose demand head waits on the request crossbar
  /// still makes one inject stall per cycle. It registers the first cycle
  /// it sleeps through here, so request_xbar_stats() counts those stalls,
  /// and settles them when it is next ticked at `now`.
  void sleep_inject_staller(Cycle from) {
    ++inject_sleepers_;
    inject_sleep_from_sum_ += from;
  }
  void wake_inject_staller(Cycle from, Cycle now) {
    --inject_sleepers_;
    inject_sleep_from_sum_ -= from;
    req_stats_.inject_stalls += now - from;
  }

  /// Whether the request-crossbar lane toward `partition` has room now.
  bool lane_can_accept(u32 partition) const {
    return req_xbar_.can_accept(partition);
  }
  /// Whether a reply for SM `sm_id` has arrived by `now`: the calendar
  /// keeps the arrival of each reply lane's head.
  bool reply_arrived(u32 sm_id, Cycle now) const {
    return now >= calendar_.at(WakeCalendar::kReplyRow, sm_id);
  }

  /// Inject a request from an SM.
  void submit(const MemRequest& req, Cycle now);

  /// Advance the whole off-SM hierarchy one core cycle: visit the due
  /// partitions (pull, then tick), every DRAM channel, then the due reply
  /// heads.
  void cycle(Cycle now);

  /// The machine's wake calendar. Gpu::step visits the SMs it holds due;
  /// the SMs keep their LD/ST and issue-stage wake cycles in it.
  WakeCalendar& calendar() { return calendar_; }
  const WakeCalendar& calendar() const { return calendar_; }

  /// Cycles this memory system has been advanced through: a sleeping
  /// component's counters are read as of this cycle.
  Cycle elapsed() const { return elapsed_; }

  /// Pop one reply for SM `sm_id` (per-SM reply bandwidth is enforced by the
  /// caller via how often it pops). Replies past the test-only keep count
  /// are swallowed here — the canonical "lost response" fault.
  bool pop_reply(u32 sm_id, Cycle now, MemRequest& out) {
    bool popped = false;
    while (reply_xbar_.pop(sm_id, now, out)) {
      calendar_.arm(WakeCalendar::kReplyRow, sm_id,
                    reply_xbar_.head_at(sm_id));
      if (replies_to_keep_ > 0) {
        --replies_to_keep_;
        popped = true;
        break;
      }
      ++dropped_replies_;
    }
    return popped;
  }

  /// Test-only fault injection: keep the next `keep` replies, then silently
  /// discard every later one, wedging the warps waiting on them. Used by the
  /// integrity tests to provoke the forward-progress watchdog.
  void set_reply_drop_for_test(u64 keep) { replies_to_keep_ = keep; }

  bool idle() const;

  /// Append crossbar/partition/DRAM occupancy to a failure snapshot.
  void snapshot_into(MachineSnapshot& snap) const;

  // Read access to the parts, for tests and snapshots.
  const Crossbar& request_xbar() const { return req_xbar_; }
  const Crossbar& reply_xbar() const { return reply_xbar_; }
  const L2Partition& partition(u32 p) const { return *partitions_[p]; }
  const DramChannel& channel(u32 c) const { return *channels_[c]; }
  /// Request-crossbar counters, with the inject stalls of sleeping LD/ST
  /// units counted through elapsed(). Valid until the next call.
  const XbarStats& request_xbar_stats() const;
  DramStats dram_stats() const;  ///< aggregated over channels
  L2Stats l2_stats() const;      ///< aggregated over partitions

 private:
  /// Keep partition `p`'s pull wake: its lane head's arrival while it has
  /// room for it. Called after whatever can change either.
  void arm_pull(u32 p);

  GpuConfig cfg_;
  Crossbar req_xbar_;
  Crossbar reply_xbar_;
  std::vector<std::unique_ptr<DramChannel>> channels_;
  std::vector<std::unique_ptr<L2Partition>> partitions_;
  WakeCalendar calendar_;
  Cycle elapsed_ = 0;
  XbarStats req_stats_;  ///< request-crossbar messages, delay and stalls
  u64 inject_sleepers_ = 0;
  u64 inject_sleep_from_sum_ = 0;
  mutable XbarStats request_xbar_read_;  ///< what request_xbar_stats() returns
  /// Replies left to deliver before the test-only fault injection drops
  /// the rest; no real run comes near the default.
  u64 replies_to_keep_ = std::numeric_limits<u64>::max();
  u64 dropped_replies_ = 0;
};

}  // namespace caps
