// GDDR5 DRAM channel with an FR-FCFS (first-ready, first-come-first-served)
// command scheduler, per-bank row-buffer state, and a shared data bus.
// Timing parameters come from Table III and are specified in DRAM command
// cycles; the channel scales them to core cycles once, at construction.
#pragma once

#include <bit>
#include <utility>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/slot_array.hpp"
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
  /// A channel whose queue and in-service ring are carved from `region`
  /// if given.
  explicit DramChannel(const GpuConfig& cfg, SlotRegion* region = nullptr);

  bool can_accept() const { return used_ != all_slots_; }
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
    if (used_ == 0) return false;
    ++stats_.busy_cycles;
    if (now < next_pick_at_) return false;
    issue(now);
    return true;
  }

  bool idle() const { return used_ == 0 && in_service_.empty(); }
  const DramStats& stats() const { return stats_; }

  std::size_t queue_size() const {
    return static_cast<std::size_t>(std::popcount(used_));
  }
  std::size_t queue_capacity() const { return queue_.size(); }
  std::size_t in_service() const { return in_service_.size(); }

 private:
  struct Pending {
    MemRequest req;
    u32 bank = 0;
    u64 row = 0;
    u64 age = 0;  ///< submission order
  };

  struct Bank {
    bool open = false;
    u64 row = 0;
    Cycle ready_at = 0;        ///< earliest cycle a new command may start
    Cycle last_activate = 0;   ///< for tRC accounting
    u64 slots = 0;             ///< queue slots of the requests it serves
  };

  /// FR-FCFS pick: the oldest row hit on a ready open bank if any, else
  /// the oldest request whose bank can start an activation. Readiness is a
  /// property of the bank, so a pass ORs the slot masks of the banks it
  /// accepts. Called only at or after next_pick_at_, where it always finds
  /// a command.
  u32 pick(Cycle now) const;
  /// Issue the command pick() chooses, then move next_pick_at_ to the
  /// earliest cycle the new bank state lets the queue's next command start.
  void issue(Cycle now);

  /// Earliest cycle `b` may start an activation: the bank is ready, tRRD
  /// has passed since any bank's last activation (and tRC since its own).
  Cycle activate_at(const Bank& b) const;
  /// Earliest cycle pick() can choose a request of `b`: its ready_at if one
  /// is a row hit, else activate_at (never earlier than ready_at).
  Cycle start_at(const Bank& b) const {
    return (b.slots & hits_) != 0 ? b.ready_at : activate_at(b);
  }

  DramTiming t_;  ///< in core cycles; burst is at least 1
  u32 row_bytes_;
  u32 num_banks_;

  /// The scheduler queue: at most 64 slots (GpuConfig::validate), one mask
  /// bit each, in no order; Pending::age orders them.
  SlotArray<Pending> queue_;
  u64 all_slots_ = 0;  ///< one bit per slot
  u64 used_ = 0;   ///< slots holding a request
  u64 hits_ = 0;   ///< slots whose row is open in their bank
  u64 next_age_ = 0;
  /// At most 64 (GpuConfig::validate): pick() gives each one mask bit.
  std::vector<Bank> banks_;
  u64 busy_banks_ = 0;  ///< banks with a queued request
  /// The queue's minimum start cycle: pick() finds nothing before this
  /// cycle and always finds a command at or after it. issue() recomputes
  /// it from the new bank state, and submit() lowers it to the new
  /// request's. Only an issued command changes the bank state it derives
  /// from, so it is never stale.
  Cycle next_pick_at_ = kNever;
  Cycle bus_free_at_ = 0;
  Cycle last_activate_any_ = 0;  ///< for tRRD (activate-to-activate, any bank)

  /// Requests whose data transfer completes at .first.
  BoundedQueue<std::pair<Cycle, MemRequest>> in_service_;

  DramStats stats_;
};

}  // namespace caps
