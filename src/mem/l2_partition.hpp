// One L2 cache partition: a slice of the shared L2 plus its MSHR and the
// queues toward its DRAM channel. Partitions are address-interleaved at
// line granularity. A partition whose probe head only stalled is not ticked
// again until what the head waits for is there, and a woken head is simply
// probed again: a probe that does not retire its head changes nothing
// (DESIGN.md §13, "Stall-only sleep").
#pragma once

#include <memory>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/sleep_ledger.hpp"
#include "common/stats.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mshr.hpp"
#include "mem/memory_request.hpp"

namespace caps {

struct L2Stats : CounterGroup<L2Stats> {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 mshr_merges = 0;
  u64 stall_mshr_full = 0;
  u64 stall_dram_full = 0;

  /// Counter registry (see stats.hpp): every u64 field above must be listed.
  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("accesses", &L2Stats::accesses);
    f("hits", &L2Stats::hits);
    f("misses", &L2Stats::misses);
    f("mshr_merges", &L2Stats::mshr_merges);
    f("stall_mshr_full", &L2Stats::stall_mshr_full);
    f("stall_dram_full", &L2Stats::stall_dram_full);
  }
};

class L2Partition {
 public:
  /// Partition `id` of the machine whose wake calendar is `calendar` and
  /// whose slot region is `region`. Its DRAM channel `channel` is channel
  /// `id % num_dram_channels`.
  L2Partition(const GpuConfig& cfg, DramChannel& channel,
              WakeCalendar& calendar, u32 id, SlotRegion& region);

  /// Whether a new request popped from the crossbar can enter this cycle.
  bool can_accept() const { return !probe_queue_.full(); }

  /// Accept a request from the request crossbar.
  void accept(const MemRequest& req, Cycle now);

  /// Whether cycle(now) can do more than repeat the stall counts of the
  /// last tick. A tick whose probe step neither retired nor issued anything
  /// puts the partition to sleep until what it waits for is there: an
  /// accept() into an empty probe queue, the probe head's ready_at, room in
  /// its DRAM channel's queue for a head or a deferred write-back, or
  /// dram_done() of a read (DESIGN.md §13, "Stall-only sleep").
  bool due(Cycle now) const {
    return ledger_.due(now) || (channel_wait_ && channel_.can_accept());
  }

  /// Advance one core cycle: push deferred dirty write-backs into the DRAM
  /// queue while it has room, then one tag probe. Counts the stalls of the
  /// cycles slept since the last call first.
  void cycle(Cycle now);

  /// Callback target when the DRAM channel finishes one of our lines.
  void dram_done(const MemRequest& req);

  /// The oldest reply waiting for the reply crossbar; null if none. The
  /// reply head is marked due whenever the queue gains a front.
  const MemRequest* front_reply() const {
    return replies_.empty() ? nullptr : &replies_.front();
  }
  void pop_reply() {
    replies_.pop_front();
    if (!replies_.empty()) mark_reply_head();
  }

  bool idle() const;
  /// Counters as of the last cycle() call; add_slept() adds the cycles
  /// slept since.
  const L2Stats& stats() const { return stats_; }
  /// Add to `s` the stalls of the cycles slept before cycle `now`.
  void add_slept(L2Stats& s, Cycle now) const { ledger_.add_to(s, now); }

  std::size_t probe_queue_size() const { return probe_queue_.size(); }
  std::size_t reply_queue_size() const { return replies_.size(); }
  std::size_t mshr_size() const { return mshr_.size(); }
  std::size_t pending_writebacks() const { return pending_writebacks_.size(); }

 private:
  struct Staged {
    Cycle ready_at;
    MemRequest req;
  };

  /// The tag probe of a ready head; returns the stall counter it bumped, or
  /// null when the head retired or issued.
  u64 L2Stats::*probe_head();
  void drain_writebacks();
  void push_reply(const MemRequest& req) {
    if (replies_.empty()) mark_reply_head();
    replies_.push_back(req);
  }
  void mark_reply_head() {
    calendar_.mark(WakeCalendar::kReplyHead, WakeCalendar::bit(id_));
  }
  /// Set whether room in the channel's queue wakes this partition, and
  /// list or withdraw it on the channel's room-wait list to match. A tick
  /// that does not sleep leaves the partition due anyway.
  void wait_channel(bool waits) {
    channel_wait_ = waits;
    calendar_.wait_room(WakeCalendar::kDramQueue, channel_id_, id_, waits);
  }

  const GpuConfig& cfg_;
  DramChannel& channel_;
  WakeCalendar& calendar_;
  u32 id_;
  u32 channel_id_;
  SetAssocCache<L2LineMeta> cache_;
  Mshr<MemRequest> mshr_;
  BoundedQueue<Staged> probe_queue_;  ///< tag-probe pipeline
  BoundedQueue<MemRequest> replies_;  ///< toward the reply crossbar
  /// Dirty evictions awaiting DRAM.
  BoundedQueue<MemRequest> pending_writebacks_;
  std::vector<MemRequest> fill_scratch_;      ///< reused by dram_done()
  L2Stats stats_;

  // Stall-only sleep, until the probe head's ready_at at the latest.
  SleepLedger<L2Stats> ledger_;
  bool channel_wait_ = false;  ///< also wake when the channel has room;
                               ///< listed on its room-wait list while set
};

}  // namespace caps
