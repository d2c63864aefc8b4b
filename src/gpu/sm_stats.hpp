// Per-SM statistics. Aggregated by Gpu into GpuStats at end of run.
#pragma once

#include "common/stats.hpp"
#include "common/types.hpp"

namespace caps {

struct SmStats : CounterGroup<SmStats> {
  // Pipeline.
  u64 active_cycles = 0;        ///< cycles with >=1 warp resident
  u64 issued_instructions = 0;  ///< warp instructions issued
  u64 issue_slots = 0;          ///< issue opportunities (active_cycles*width)
  /// No instruction issued (no warp eligible, or the only pick was refused
  /// by a full LD/ST queue) and >=1 warp waiting on memory.
  u64 stall_cycles_all_mem = 0;
  u64 stall_ldst_full = 0;      ///< issue lost: LD/ST queue had no room
  u64 ctas_completed = 0;

  // L1D demand path.
  u64 l1_accesses = 0;
  u64 l1_hits = 0;
  u64 l1_misses = 0;            ///< primary + secondary
  u64 l1_fills = 0;             ///< memory replies filled into L1
  u64 l1_mshr_merges = 0;
  u64 demand_to_mem = 0;        ///< primary demand misses sent downstream
  u64 stores_to_mem = 0;
  u64 stall_mshr_full = 0;
  u64 stall_merge_full = 0;
  u64 stall_xbar_full = 0;

  // Prefetch path.
  u64 pf_generated = 0;          ///< requests produced by the engine
  u64 pf_dropped_queue_full = 0;
  u64 pf_dropped_hit = 0;        ///< already in L1
  u64 pf_dropped_inflight = 0;   ///< already in an MSHR
  u64 pf_stall_structural = 0;   ///< head-of-queue retry cycles (MSHR/xbar full)
  u64 pf_issued_to_mem = 0;
  u64 pf_useful = 0;             ///< demand hit on a prefetched line
  u64 pf_useful_late = 0;        ///< demand merged into an in-flight prefetch
  u64 pf_early_evicted = 0;      ///< evicted before any demand use
  u64 pf_wakeups = 0;            ///< eager warp wake-ups delivered
  RunningStat pf_distance;       ///< issue->demand cycles of useful prefetches

  // Memory latency observed by demand loads (miss path only).
  RunningStat demand_miss_latency;

  /// Counter registry (see stats.hpp): every u64 field above must be listed.
  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("active_cycles", &SmStats::active_cycles);
    f("issued_instructions", &SmStats::issued_instructions);
    f("issue_slots", &SmStats::issue_slots);
    f("stall_cycles_all_mem", &SmStats::stall_cycles_all_mem);
    f("stall_ldst_full", &SmStats::stall_ldst_full);
    f("ctas_completed", &SmStats::ctas_completed);
    f("l1_accesses", &SmStats::l1_accesses);
    f("l1_hits", &SmStats::l1_hits);
    f("l1_misses", &SmStats::l1_misses);
    f("l1_fills", &SmStats::l1_fills);
    f("l1_mshr_merges", &SmStats::l1_mshr_merges);
    f("demand_to_mem", &SmStats::demand_to_mem);
    f("stores_to_mem", &SmStats::stores_to_mem);
    f("stall_mshr_full", &SmStats::stall_mshr_full);
    f("stall_merge_full", &SmStats::stall_merge_full);
    f("stall_xbar_full", &SmStats::stall_xbar_full);
    f("pf_generated", &SmStats::pf_generated);
    f("pf_dropped_queue_full", &SmStats::pf_dropped_queue_full);
    f("pf_dropped_hit", &SmStats::pf_dropped_hit);
    f("pf_dropped_inflight", &SmStats::pf_dropped_inflight);
    f("pf_stall_structural", &SmStats::pf_stall_structural);
    f("pf_issued_to_mem", &SmStats::pf_issued_to_mem);
    f("pf_useful", &SmStats::pf_useful);
    f("pf_useful_late", &SmStats::pf_useful_late);
    f("pf_early_evicted", &SmStats::pf_early_evicted);
    f("pf_wakeups", &SmStats::pf_wakeups);
  }

  /// RunningStat registry: merge() and stats_signature() iterate it, so a
  /// new accumulator can escape neither aggregation nor the determinism gate.
  template <typename F>
  static void for_each_running_stat_member(F&& f) {
    f("pf_distance", &SmStats::pf_distance);
    f("demand_miss_latency", &SmStats::demand_miss_latency);
  }
};

}  // namespace caps
