// Static schedule advisor (DESIGN.md §12).
//
// The kernel analyzer (§11) predicts what the CAP prefetcher *learns*; this
// module predicts what the PAS schedulers *decide*. From the kernel IR, the
// CTA distributor policy, and the machine config alone it derives:
//   * the warp each CTA's leading marker must land on (always warp 0 of the
//     CTA: on_cta_launch marks the first warp slot),
//   * the per-SM base-address discovery order over the initial CTA wave —
//     the order in which leading warps reach their first global load —
//     under PAS (leading-warp priority on a two-level queue) and PAS-GTO
//     (oldest-leading-first greedy),
//   * the per-PC expected prefetch distance, in scheduler rounds, for the
//     two ways a trailing warp can meet its prefetch (co-resident in the
//     ready queue vs. woken from pending by the fill),
//   * a static timeliness classification per prefetchable PC
//     (timely-dominant / late-dominant / mixed) with the rule that fired,
//   * whether eager wake-up opportunities exist at all (a pending
//     population and at least one prefetchable PC).
//
// The predictions are cross-checked against simulation by the schedule
// section of harness/oracle.hpp's cross_check(): a divergence means either a
// scheduler regression or an advisor bug, and both gate the PR.
//
// IMPORTANT: like the kernel analyzer, this module re-derives the queue
// mechanics from the documented protocol (pas_scheduler.hpp's contract)
// instead of instantiating the schedulers — sharing the implementation
// would make the differential check a tautology.
#pragma once

#include <string>
#include <vector>

#include "analysis/kernel_analyzer.hpp"
#include "common/config.hpp"
#include "isa/kernel.hpp"

namespace caps::analysis {

/// Static timeliness prediction for one prefetchable load PC, mirroring the
/// runtime prefetch-outcome trace kinds (gpu/trace.hpp). kMixed marks PCs
/// where the static model expects no dominant bucket and declines to gate.
enum class TimelinessClass : u8 {
  kTimelyDominant,  ///< most trailing demands hit a completed prefetch
  kLateDominant,    ///< most trailing demands merge with an in-flight one
  kMixed,           ///< no dominant bucket predicted; not cross-checked
};

const char* to_string(TimelinessClass t);

/// Per-PC schedule prediction.
struct PcSchedule {
  u32 instr_index = 0;
  Addr pc = 0;
  bool prefetchable = false;  ///< from the load classification (§11)
  bool wrap_hazard = false;   ///< stride checks are relaxed for these
  bool in_loop = false;
  bool barrier_in_loop = false;  ///< an enclosing loop body has a barrier
  bool stall_adjacent = false;   ///< next instruction waits on memory
  /// Estimated non-memory latency of the innermost enclosing loop body
  /// (cycles); 0 for straight-line loads.
  u64 loop_body_cycles = 0;
  /// Expected prefetch distance for a trailing warp co-resident in the
  /// ready queue: it issues the same PC within the same scheduler round,
  /// so the distance is a fraction of one round.
  double ready_gap_rounds = 0.0;
  /// Expected distance for a wakeup-paced warp: the prefetch fill itself
  /// promotes it, so the distance is the fill round trip in rounds.
  double wakeup_gap_rounds = 0.0;
  TimelinessClass timeliness = TimelinessClass::kMixed;
  const char* rule = "";  ///< which static rule produced the class
};

/// Initial-wave predictions for one SM.
struct SmWave {
  u32 sm_id = 0;
  /// CTAs (flat ids) of the initial wave on this SM, in launch order.
  std::vector<u32> ctas;
  /// Predicted base-address discovery order (flat CTA ids): the order the
  /// leading warps reach the kernel's first global load.
  std::vector<u32> discovery_pas;
  std::vector<u32> discovery_pas_gto;
  /// How many leaders the launch protocol kept ready-resident: the first
  /// `ready_leader_count` entries of discovery_pas never pass through the
  /// pending queue, so their order is immune to promotion-time effects.
  u32 ready_leader_count = 0;
};

/// Whole-kernel schedule prediction.
struct ScheduleAdvice {
  std::string kernel;
  u32 warps_per_cta = 0;
  u32 max_concurrent_ctas = 0;  ///< per SM, resource-limited
  u32 initial_wave_ctas = 0;    ///< total CTAs launched before any SM cycles
  /// The warp-in-CTA index PAS must mark as leading (protocol: the first
  /// warp of the CTA).
  u32 predicted_leading_warp = 0;
  Addr first_load_pc = 0;
  bool has_global_load = false;
  /// True when the discovery-order model applies: warps run straight-line
  /// code (no barrier, no store) from launch to the first global load, so
  /// queue order alone decides who reaches it first.
  bool order_reliable = false;
  std::string order_caveat;  ///< why not, when order_reliable is false
  /// Pending-queue population per SM once the initial wave is resident.
  u32 pending_warps = 0;
  /// Eager wake-ups are possible at all: a pending population exists and
  /// some PC generates prefetches. (Opportunity, not a guarantee.)
  bool wakeup_opportunity = false;
  double round_cycles = 0.0;     ///< one ready-queue round, in cycles
  double fill_round_trip = 0.0;  ///< prefetch issue -> L1 fill, L2-hit path
  std::vector<PcSchedule> pcs;   ///< one entry per global-load PC
  std::vector<SmWave> waves;     ///< one entry per SM with initial-wave CTAs

  const PcSchedule* find(Addr pc) const;
};

/// Derive the schedule predictions for `k` under `cfg`. `ka` must be the
/// analysis of the same kernel (supplies the per-PC load classes).
ScheduleAdvice advise_schedule(const Kernel& k, const KernelAnalysis& ka,
                               const GpuConfig& cfg = {});

}  // namespace caps::analysis
