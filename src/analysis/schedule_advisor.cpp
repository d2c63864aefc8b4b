#include "analysis/schedule_advisor.hpp"

#include <algorithm>

namespace caps::analysis {
namespace {

/// Issue-slot cost of one instruction for a warp running alone: one slot,
/// plus the result latency when the next instruction depends on it. Memory
/// waits are deliberately excluded — they are what the timeliness model is
/// predicting, not an input to it.
u64 instr_cycles(const Instruction& ins, const GpuConfig& cfg) {
  u32 lat = 0;
  switch (ins.op) {
    case Opcode::kAlu:
      lat = ins.latency != 0 ? ins.latency : cfg.alu_latency;
      break;
    case Opcode::kSfu:
      lat = ins.latency != 0 ? ins.latency : cfg.sfu_latency;
      break;
    case Opcode::kShared:
    case Opcode::kMem:
    case Opcode::kBarrier:
    case Opcode::kLoopBegin:
    case Opcode::kLoopEnd:
    case Opcode::kExit:
      return 1;  // shared op, mem issue, barrier arrival, loop bookkeeping
  }
  return ins.dep_next ? lat : 1;
}

/// Fraction of the fill round trip a barrier-free loop body must cover for
/// trailing warps to meet their fan-out prefetches. Calibrated against the
/// fig14-style runtime buckets (DESIGN.md §12): CNV's ~49-cycle bodies run
/// timely-dominant, HST's ~17-cycle body runs late-dominant, with the
/// 96-cycle L2-hit round trip between them.
constexpr double kBodyCoverage = 1.0 / 3.0;

}  // namespace

const char* to_string(TimelinessClass t) {
  switch (t) {
    case TimelinessClass::kTimelyDominant: return "timely-dominant";
    case TimelinessClass::kLateDominant: return "late-dominant";
    case TimelinessClass::kMixed: return "mixed";
  }
  return "?";
}

const PcSchedule* ScheduleAdvice::find(Addr pc) const {
  for (const PcSchedule& p : pcs)
    if (p.pc == pc) return &p;
  return nullptr;
}

ScheduleAdvice advise_schedule(const Kernel& k, const KernelAnalysis& ka,
                               const GpuConfig& cfg) {
  ScheduleAdvice adv;
  adv.kernel = k.name();
  adv.warps_per_cta = k.warps_per_cta();
  adv.predicted_leading_warp = 0;  // on_cta_launch marks the first warp

  const std::vector<Instruction>& instrs = k.instructions();

  // --- machine-derived quantities ----------------------------------------
  adv.max_concurrent_ctas =
      adv.warps_per_cta == 0
          ? 0
          : std::min(cfg.max_ctas_per_sm,
                     cfg.max_warps_per_sm / adv.warps_per_cta);
  const u64 full_wave =
      static_cast<u64>(cfg.num_sms) * adv.max_concurrent_ctas;
  adv.initial_wave_ctas = static_cast<u32>(
      std::min<u64>(k.grid().count(), full_wave));
  const u32 resident_warps = adv.warps_per_cta * adv.max_concurrent_ctas;
  adv.pending_warps = resident_warps > cfg.ready_queue_size
                          ? resident_warps - cfg.ready_queue_size
                          : 0;
  adv.round_cycles = static_cast<double>(cfg.ready_queue_size) /
                     static_cast<double>(cfg.issue_width);
  adv.fill_round_trip =
      static_cast<double>(2 * cfg.xbar_latency + cfg.l2_latency);

  // --- first global load + discovery-order reliability -------------------
  u32 first_load_idx = 0;
  for (u32 i = 0; i < instrs.size(); ++i) {
    const Instruction& ins = instrs[i];
    if (ins.op == Opcode::kMem && ins.is_load) {
      adv.has_global_load = true;
      adv.first_load_pc = ins.pc;
      first_load_idx = i;
      break;
    }
  }
  if (!adv.has_global_load) {
    adv.order_caveat = "kernel has no global load";
  } else {
    adv.order_reliable = true;
    for (u32 i = 0; i < first_load_idx; ++i) {
      if (instrs[i].op == Opcode::kBarrier) {
        adv.order_reliable = false;
        adv.order_caveat = "barrier before the first global load couples "
                           "warp progress across the CTA";
        break;
      }
      if (instrs[i].op == Opcode::kMem && !instrs[i].is_load) {
        adv.order_reliable = false;
        adv.order_caveat = "store before the first global load adds memory "
                           "timing ahead of discovery";
        break;
      }
    }
  }

  // --- per-PC schedule predictions ---------------------------------------
  const bool any_prefetchable = [&ka] {
    for (const LoadAnalysis& la : ka.loads)
      if (la.prefetchable()) return true;
    return false;
  }();
  adv.wakeup_opportunity = any_prefetchable && adv.pending_warps > 0;

  for (const LoadAnalysis& la : ka.loads) {
    PcSchedule ps;
    ps.instr_index = la.instr_index;
    ps.pc = la.pc;
    ps.prefetchable = la.prefetchable();
    ps.wrap_hazard = la.wrap_hazard;
    ps.in_loop = la.in_loop;
    ps.stall_adjacent = la.instr_index + 1 < instrs.size() &&
                        instrs[la.instr_index + 1].waits_mem;

    const u32 loop = instrs[la.instr_index].loop;
    if (loop != kNoLoop) {
      for (u32 i = loop + 1; i < instrs[loop].match; ++i) {
        if (instrs[i].op == Opcode::kBarrier) ps.barrier_in_loop = true;
        ps.loop_body_cycles += instr_cycles(instrs[i], cfg);
      }
    }

    // Expected prefetch distance: a trailing warp co-resident in the ready
    // queue reissues the PC within the same round (mean queue distance is
    // half the queue); a wakeup-paced warp is promoted by the fill itself.
    ps.ready_gap_rounds =
        adv.round_cycles > 0.0
            ? (static_cast<double>(cfg.ready_queue_size) / 2.0 /
               static_cast<double>(cfg.issue_width)) /
                  adv.round_cycles
            : 0.0;
    ps.wakeup_gap_rounds =
        adv.round_cycles > 0.0 ? adv.fill_round_trip / adv.round_cycles : 0.0;

    // Timeliness classification (DESIGN.md §12). Order matters: the first
    // matching rule wins, and everything not confidently modeled is kMixed
    // (reported but never cross-checked).
    if (!ps.prefetchable) {
      ps.timeliness = TimelinessClass::kMixed;
      ps.rule = "not-prefetchable";
    } else if (ps.wrap_hazard) {
      ps.timeliness = TimelinessClass::kMixed;
      ps.rule = "wrap-hazard";
    } else if (ps.in_loop && ps.barrier_in_loop) {
      // Every iteration re-converges the CTA at the barrier, so trailing
      // demands trail the leader's fan-out by a fraction of a round.
      ps.timeliness = TimelinessClass::kLateDominant;
      ps.rule = "barrier-synced-loop";
    } else if (ps.in_loop) {
      const bool covered =
          static_cast<double>(ps.loop_body_cycles) >=
          kBodyCoverage * adv.fill_round_trip;
      ps.timeliness = covered ? TimelinessClass::kTimelyDominant
                              : TimelinessClass::kLateDominant;
      ps.rule = covered ? "long-body-loop" : "short-body-loop";
    } else if (la.instr_index == first_load_idx && !ps.stall_adjacent &&
               adv.pending_warps > 0) {
      // The kernel's first load with no immediate consumer: the leader's
      // fan-out reaches the deep pending population, and those warps are
      // wakeup-paced — their demand follows the fill, not the issue.
      ps.timeliness = TimelinessClass::kTimelyDominant;
      ps.rule = "leading-fanout-prologue";
    } else {
      ps.timeliness = TimelinessClass::kMixed;
      ps.rule = "order-dependent-prologue";
    }
    adv.pcs.push_back(ps);
  }

  // --- per-SM initial wave + discovery order -----------------------------
  // The distributor's initial fill hands CTA i to SM i % num_sms. The PAS
  // launch protocol (pas_scheduler.hpp): the leading warp enters the FRONT
  // of the ready queue while room remains, else the front of pending;
  // trailing warps fill ready from the back, then pending from the back.
  // Discovery order = ready leaders front-to-back, then pending leaders
  // front-to-back (leading-warp-priority promotion drains pending leaders
  // in queue order). PAS-GTO greedily runs the oldest leading warp, so its
  // discovery order is simply launch order.
  for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
    SmWave wave;
    wave.sm_id = sm;
    for (u32 cta = sm; cta < adv.initial_wave_ctas; cta += cfg.num_sms)
      wave.ctas.push_back(cta);
    if (wave.ctas.empty()) continue;

    std::vector<u32> ready_leaders, pending_leaders;  // index 0 = front
    u32 ready_count = 0;
    for (const u32 cta : wave.ctas) {
      if (ready_count < cfg.ready_queue_size) {
        ready_leaders.insert(ready_leaders.begin(), cta);
        ++ready_count;
      } else {
        pending_leaders.insert(pending_leaders.begin(), cta);
      }
      for (u32 t = 1; t < adv.warps_per_cta; ++t)
        if (ready_count < cfg.ready_queue_size) ++ready_count;
    }
    wave.ready_leader_count = static_cast<u32>(ready_leaders.size());
    wave.discovery_pas = ready_leaders;
    wave.discovery_pas.insert(wave.discovery_pas.end(),
                              pending_leaders.begin(), pending_leaders.end());
    wave.discovery_pas_gto = wave.ctas;
    adv.waves.push_back(std::move(wave));
  }

  return adv;
}

}  // namespace caps::analysis
