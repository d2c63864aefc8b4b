// Streaming multiprocessor: warp contexts, CTA slots, issue logic, and the
// LD/ST unit. Policy objects (scheduler, prefetch engine) are injected so
// the same SM model runs every configuration in the paper.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/sleep_ledger.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/ldst_unit.hpp"
#include "gpu/scheduler.hpp"
#include "gpu/sm_stats.hpp"
#include "gpu/trace.hpp"
#include "gpu/warp.hpp"
#include "isa/kernel.hpp"
#include "prefetch/prefetcher.hpp"

namespace caps {

class MemorySystem;

/// Builds the policy objects for one SM. Each factory is called once per
/// SM, at construction, and the benchmark builds against these types.
/// make_scheduler's two trailing parameters do nothing: the SM passes empty
/// functions and the factories drop them (DESIGN.md §13, "Benchmark compile
/// contract").
struct SmPolicyFactories {
  std::function<std::unique_ptr<Scheduler>(
      const GpuConfig&, std::vector<WarpContext>&,
      std::function<bool(u32, Cycle)>, std::function<bool(u32)>)>
      make_scheduler;  // capsim-lint: allow(hot-path-function)
  std::function<std::unique_ptr<Prefetcher>(const GpuConfig&)>
      make_prefetcher;  // capsim-lint: allow(hot-path-function)
};

class StreamingMultiprocessor {
 public:
  StreamingMultiprocessor(const GpuConfig& cfg, u32 id, const Kernel& kernel,
                          MemorySystem& mem, const SmPolicyFactories& policies,
                          const TraceSink* trace = nullptr);
  // The LD/ST unit holds this SM's address.
  StreamingMultiprocessor(const StreamingMultiprocessor&) = delete;
  StreamingMultiprocessor& operator=(const StreamingMultiprocessor&) = delete;

  /// Maximum CTAs this SM can hold for this kernel (resource limit).
  u32 max_concurrent_ctas() const { return max_concurrent_ctas_; }
  u32 resident_ctas() const { return resident_ctas_; }
  bool can_launch_cta() const { return resident_ctas_ < max_concurrent_ctas_; }

  /// Launch a CTA; returns false if no slot is free.
  bool launch_cta(const Dim3& cta_id, Cycle now);

  /// Whether cycle(now) has work: the LD/ST unit is due, or the issue
  /// stage is. The issue stage sleeps while no warp is resident and while
  /// it elides refused cycles.
  bool due(Cycle now) const { return ldst_.due(now) || elided_.due(now); }

  /// Advance one cycle: the LD/ST unit and the issue stage each act only
  /// when due, so a cycle in which due(now) is false changes nothing.
  void cycle(Cycle now);

  /// True while any warp is resident or memory operations are in flight.
  bool busy() const;

  u32 resident_warps() const { return resident_warps_; }

  /// Append per-warp state and LD/ST occupancy to a failure snapshot.
  void snapshot_into(MachineSnapshot& snap) const;

  /// Test-only fault injection: make warp `slot` permanently unready so the
  /// forward-progress watchdog has a reproducible livelock to detect.
  void wedge_warp_for_test(u32 slot);

  /// Counters as of the last cycle the memory system was advanced through,
  /// including the cycles the LD/ST unit slept and the issue stage elided.
  SmStats stats() const;
  /// Counters as of this SM's own ticks, without what its sleeps owe: exact
  /// for every counter a sleep does not owe (the watchdog's progress poll).
  const SmStats& ticked_stats() const { return stats_; }
  const Prefetcher& prefetcher() const { return *prefetcher_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  const LdStUnit& ldst() const { return ldst_; }

 private:
  // The LD/ST unit reports load completions, eager wake-ups and demand
  // misses through on_load_done / on_prefetch_fill / on_demand_miss.
  friend class LdStUnit;

  /// End any elided span of refused issue cycles before an event at `now`
  /// changes what the issue stage would do: count the span through
  /// `now - 1` and replay it into the scheduler. Also restarts round
  /// detection. Every hook calls it before it changes warp state.
  void wake_issue(Cycle now) {
    round_warp_ = kNoWarp;
    round_min_lines_ = 0;
    if (elided_.owes(&SmStats::active_cycles)) end_elision(now);
  }
  void end_elision(Cycle now);
  /// The first-slot pick at `now` returned `slot`, which the LD/ST unit
  /// refused. Once a whole round of refusals repeats, elides the issue
  /// cycles after `now` until a hook or the next ready_at: each would
  /// repeat a pick of the round, refused.
  void note_refused(i32 slot, Cycle now);
  /// The earliest ready_at after `after` of an active warp that does not
  /// wait on memory; kNever if none.
  Cycle next_ready(Cycle after) const;

  /// Recompute warp `slot`'s mem_wait, the count of waiting warps and its
  /// issuable_ bit. Called at launch, after an issue, at exit, when a warp's
  /// last load completes and for each warp a barrier releases: the only
  /// places its status or mem_wait inputs change.
  void update_mem_wait(u32 slot);
  /// Attempt to issue one instruction from `slot`; returns false on a
  /// structural hazard (the issue slot is wasted, as in hardware).
  bool issue(u32 slot, Cycle now);
  /// `lines` views the coalescer scratch buffer; it stays valid for the
  /// duration of the call (nothing downstream re-coalesces) and is copied
  /// into L1Access / PrefetchRequest records before returning.
  void issue_memory(u32 slot, const Instruction& ins,
                    std::span<const Addr> lines, Cycle now);
  void arrive_barrier(u32 slot, Cycle now);
  void finish_warp(u32 slot);
  void on_load_done(u32 slot, Cycle now);
  /// A prefetch bound to `slot` filled L1: forward the eager wake-up.
  void on_prefetch_fill(u32 slot, Cycle now);
  /// A demand load missed L1 and went to memory: drives NLP/LAP engines.
  void on_demand_miss(Addr line, Addr pc, i32 warp_slot, Cycle now);

  const GpuConfig& cfg_;
  u32 id_;
  const Kernel& kernel_;
  const MemorySystem& mem_;
  SmStats stats_;
  LdStUnit ldst_;
  Coalescer coalescer_;
  std::vector<WarpContext> warps_;
  std::vector<CtaSlot> ctas_;
  std::unique_ptr<Prefetcher> prefetcher_;
  std::unique_ptr<Scheduler> scheduler_;
  const TraceSink* trace_;  ///< null when tracing is off

  u32 max_concurrent_ctas_ = 0;
  u32 resident_ctas_ = 0;
  u32 resident_warps_ = 0;
  u32 mem_wait_warps_ = 0;  ///< warps whose mem_wait bit is set
  /// Active warps that do not wait on memory, one bit per slot
  /// (GpuConfig::validate caps warps at 64): the ones next_ready() reads.
  u64 issuable_ = 0;
  u64 launch_counter_ = 0;

  // Issue elision (DESIGN.md §13). A round starts at the first refused
  // first-slot pick after a warp-state change; when the same warp is
  // refused again, the issue stage repeats the round until a hook or the
  // next ready_at, so it stops picking and counts the span instead. An
  // open span always owes active_cycles; with no warp resident the stage
  // sleeps owing nothing until a launch.
  i32 round_warp_ = kNoWarp;   ///< first warp refused in this round
  Cycle round_start_ = 0;      ///< cycle round_warp_ was refused
  u32 round_min_lines_ = 0;    ///< fewest stalled_lines refused this round;
                               ///< 0 with no round
  SleepLedger<SmStats> elided_;
  std::vector<u32> free_warp_blocks_;  ///< first-warp slots of free regions
  std::vector<PrefetchRequest> pf_buffer_;
  std::vector<Addr> coalesce_scratch_;  ///< reused per memory issue
};

}  // namespace caps
