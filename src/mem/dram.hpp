// GDDR5 DRAM channel with an FR-FCFS (first-ready, first-come-first-served)
// command scheduler, per-bank row-buffer state, and a shared data bus.
// Timing parameters come from Table III and are specified in DRAM command
// cycles; the channel scales them to core cycles once, at construction.
#pragma once

#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/flat_deque.hpp"
#include "common/stats.hpp"
#include "mem/memory_request.hpp"

namespace caps {

struct DramStats : CounterGroup<DramStats> {
  u64 reads = 0;
  u64 writes = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;
  u64 busy_cycles = 0;      ///< cycles with at least one queued request
  /// Never written (the L2's stall_dram_full is the count); kept while
  /// stats_signature and perfbench read it. ROADMAP item 1 removes it.
  u64 queue_full_stalls = 0;  // capsim-lint: allow(dead-counter)

  /// Counter registry (see stats.hpp): every u64 field above must be listed.
  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("reads", &DramStats::reads);
    f("writes", &DramStats::writes);
    f("row_hits", &DramStats::row_hits);
    f("row_misses", &DramStats::row_misses);
    f("busy_cycles", &DramStats::busy_cycles);
    f("queue_full_stalls", &DramStats::queue_full_stalls);
  }
};

class DramChannel {
 public:
  explicit DramChannel(const GpuConfig& cfg);

  bool can_accept() const { return queue_.size() < queue_capacity_; }
  void submit(const MemRequest& req);

  /// Pop one request whose data transfer has completed by `now`, in
  /// completion order. Drain the channel this way before each cycle(now).
  bool pop_done(Cycle now, MemRequest& out) {
    if (in_service_.empty() || in_service_.front().first > now) return false;
    out = in_service_.front().second;
    in_service_.pop_front();
    return true;
  }

  /// Advance one core cycle: schedule at most one command, and return
  /// whether it did (a command frees a queue slot). Before next_pick_at_
  /// no command can start, so the cycle only counts as busy.
  bool cycle(Cycle now) {
    if (queue_.empty()) return false;
    ++stats_.busy_cycles;
    if (now < next_pick_at_) return false;
    issue(now);
    return true;
  }

  bool idle() const { return queue_.empty() && in_service_.empty(); }
  const DramStats& stats() const { return stats_; }

  std::size_t queue_size() const { return queue_.size(); }
  std::size_t queue_capacity() const { return queue_capacity_; }
  std::size_t in_service() const { return in_service_.size(); }

 private:
  struct Pending {
    MemRequest req;
    u32 bank = 0;
    u64 row = 0;
  };

  struct Bank {
    bool open = false;
    u64 row = 0;
    Cycle ready_at = 0;        ///< earliest cycle a new command may start
    Cycle last_activate = 0;   ///< for tRC accounting
  };

  /// FR-FCFS pick: oldest row-hit if any bank-ready row-hit exists, else the
  /// oldest request whose bank can start an activation. Readiness is a
  /// property of the bank, so each pass builds a bank mask once and each
  /// queue entry costs one bit test. Called only at or after
  /// next_pick_at_, where it always finds a command.
  FlatDeque<Pending>::iterator pick(Cycle now);
  /// Issue the command pick() chooses, then move next_pick_at_ to the
  /// earliest cycle the new bank state lets the queue's next command start.
  void issue(Cycle now);

  /// Earliest cycle `b` may start an activation: the bank is ready, tRRD
  /// has passed since any bank's last activation (and tRC since its own).
  Cycle activate_at(const Bank& b) const;
  /// Earliest cycle pick() can choose `p` in the current bank state: its
  /// bank's ready_at for a row hit, else activate_at.
  Cycle start_at(const Pending& p) const;

  DramTiming t_;  ///< in core cycles; burst is at least 1
  u32 row_bytes_;
  u32 num_banks_;
  std::size_t queue_capacity_;

  FlatDeque<Pending> queue_;
  /// At most 64 (GpuConfig::validate): pick() gives each one mask bit.
  std::vector<Bank> banks_;
  /// The queue's minimum start_at: pick() finds nothing before this cycle
  /// and always finds a command at or after it. issue() recomputes it from
  /// the new bank state, and submit() lowers it to the new request's. Only
  /// an issued command changes the bank state it derives from, so it is
  /// never stale.
  Cycle next_pick_at_ = kNever;
  Cycle bus_free_at_ = 0;
  Cycle last_activate_any_ = 0;  ///< for tRRD (activate-to-activate, any bank)

  /// Requests whose data transfer completes at .first.
  FlatDeque<std::pair<Cycle, MemRequest>> in_service_;

  DramStats stats_;
};

}  // namespace caps
