// One L2 cache partition: a slice of the shared L2 plus its MSHR and the
// queues toward its DRAM channel. Partitions are address-interleaved at
// line granularity. A partition whose probe head only stalled is not ticked
// again until an event can change that, and a woken head is simply probed
// again: a probe that does not retire its head changes nothing (DESIGN.md
// §13, "Stall-only sleep").
#pragma once

#include <memory>

#include "common/bounded_queue.hpp"
#include "common/flat_deque.hpp"
#include "common/config.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mshr.hpp"
#include "mem/memory_request.hpp"

namespace caps {

struct L2Stats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 mshr_merges = 0;
  u64 writebacks = 0;
  u64 stall_mshr_full = 0;
  u64 stall_dram_full = 0;

  /// Counter registry (see stats.hpp): every u64 field above must be listed.
  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("accesses", &L2Stats::accesses);
    f("hits", &L2Stats::hits);
    f("misses", &L2Stats::misses);
    f("mshr_merges", &L2Stats::mshr_merges);
    f("writebacks", &L2Stats::writebacks);
    f("stall_mshr_full", &L2Stats::stall_mshr_full);
    f("stall_dram_full", &L2Stats::stall_dram_full);
  }

  template <typename F>
  void for_each_counter(F&& f) const {
    for_each_counter_member(
        [&](const char* name, auto m) { f(name, this->*m); });
  }

  void merge(const L2Stats& o) {
    for_each_counter_member([&](const char*, auto m) { this->*m += o.*m; });
  }
};

class L2Partition {
 public:
  L2Partition(const GpuConfig& cfg, DramChannel& channel);

  /// Whether a new request popped from the crossbar can enter this cycle.
  bool can_accept() const { return !probe_queue_.full(); }

  /// Accept a request from the request crossbar.
  void accept(const MemRequest& req, Cycle now);

  /// Whether cycle(now) can do more than repeat the stall counts of the
  /// last tick. A tick whose probe step neither retired nor issued anything
  /// puts the partition to sleep until an event it names: accept(),
  /// dram_done(), the probe head's ready_at, or a command issued by its DRAM
  /// channel (DESIGN.md §13, "Stall-only sleep").
  bool due(Cycle now) const {
    return now >= wake_at_ ||
           (channel_wait_ && channel_.commands() != channel_commands_);
  }

  /// Advance one core cycle: push deferred dirty write-backs into the DRAM
  /// queue while it has room, then one tag probe. Counts the stalls of the
  /// cycles slept since the last call first.
  void cycle(Cycle now);

  /// Callback target when the DRAM channel finishes one of our lines.
  void dram_done(const MemRequest& req, Cycle now);

  /// The oldest reply waiting for the reply crossbar; null if none.
  const MemRequest* front_reply() const {
    return replies_.empty() ? nullptr : &replies_.front();
  }
  void pop_reply() { replies_.pop_front(); }

  bool idle() const;
  /// Counters as of the last cycle() call; add_slept() adds the cycles
  /// slept since.
  const L2Stats& stats() const { return stats_; }
  /// Add to `s` the stalls of the cycles slept before cycle `now`.
  void add_slept(L2Stats& s, Cycle now) const {
    if (sleep_stall_ != nullptr) s.*sleep_stall_ += now - slept_from_;
  }

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
  u64 L2Stats::*probe_head(Cycle now);
  void drain_writebacks();

  const GpuConfig& cfg_;
  DramChannel& channel_;
  SetAssocCache cache_;
  Mshr<MemRequest> mshr_;
  BoundedQueue<Staged> probe_queue_;   ///< tag-probe pipeline
  FlatDeque<MemRequest> replies_;      ///< toward the reply crossbar
  FlatDeque<MemRequest> pending_writebacks_;  ///< dirty evictions awaiting DRAM
  std::vector<MemRequest> fill_scratch_;      ///< reused by dram_done()
  L2Stats stats_;

  // Stall-only sleep. Awake, wake_at_ is 0.
  Cycle wake_at_ = 0;
  bool channel_wait_ = false;  ///< also wake when the channel issues
  u64 channel_commands_ = 0;   ///< channel_.commands() when put to sleep
  Cycle slept_from_ = 0;       ///< first cycle slept through
  u64 L2Stats::*sleep_stall_ = nullptr;  ///< counted once per slept cycle
};

}  // namespace caps
