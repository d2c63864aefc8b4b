#include "harness/trace_analysis.hpp"

#include <algorithm>
#include <unordered_map>

namespace caps {

Addr LoadTraceCollector::hottest_pc() const {
  std::unordered_map<Addr, u64> counts;
  for (const TraceEvent& e : events_) ++counts[e.pc];
  Addr best = 0;
  u64 best_n = 0;
  for (const auto& [pc, n] : counts) {
    if (n > best_n) {
      best = pc;
      best_n = n;
    }
  }
  return best;
}

std::vector<StrideDistancePoint> analyze_stride_distance(
    const std::vector<TraceEvent>& events, Addr pc, u32 max_distance) {
  // First execution of `pc` per (SM, warp slot): the initial generation of
  // warps, i.e. the CTAs resident after the round-robin fill. Warp-slot
  // distance then matches the paper's "distance between warps" x-axis.
  struct Obs {
    Addr addr = 0;
    Cycle cycle = 0;
    u32 cta_flat = 0;
    bool valid = false;
  };
  std::map<u32, std::vector<Obs>> per_sm;  // sm -> slot-indexed observations

  for (const TraceEvent& e : events) {
    if (e.kind != TraceKind::kLoadIssue || e.pc != pc) continue;
    const auto slot = static_cast<u32>(e.warp_slot);
    auto& slots = per_sm[e.sm_id];
    if (slots.size() <= slot) slots.resize(slot + 1);
    Obs& o = slots[slot];
    if (o.valid) continue;  // keep the first execution only
    o = Obs{e.line, e.cycle, e.cta_flat, true};
  }

  // The reference stride: consecutive warps of the same CTA.
  std::unordered_map<i64, u64> stride_votes;
  for (const auto& [sm, slots] : per_sm) {
    for (std::size_t w = 0; w + 1 < slots.size(); ++w) {
      if (!slots[w].valid || !slots[w + 1].valid) continue;
      if (slots[w].cta_flat != slots[w + 1].cta_flat) continue;
      ++stride_votes[static_cast<i64>(slots[w + 1].addr) -
                     static_cast<i64>(slots[w].addr)];
    }
  }
  i64 stride = 0;
  u64 votes = 0;
  for (const auto& [s, n] : stride_votes) {
    if (n > votes) {
      stride = s;
      votes = n;
    }
  }

  std::vector<StrideDistancePoint> out;
  for (u32 d = 1; d <= max_distance; ++d) {
    StrideDistancePoint p;
    p.distance = d;
    u64 correct = 0;
    double gap_sum = 0.0;
    for (const auto& [sm, slots] : per_sm) {
      for (std::size_t w = 0; w + d < slots.size(); ++w) {
        if (!slots[w].valid || !slots[w + d].valid) continue;
        ++p.pairs;
        const Addr predicted = static_cast<Addr>(
            static_cast<i64>(slots[w].addr) + stride * static_cast<i64>(d));
        if (predicted == slots[w + d].addr) ++correct;
        const double gap =
            static_cast<double>(slots[w + d].cycle) -
            static_cast<double>(slots[w].cycle);
        gap_sum += gap < 0 ? -gap : gap;
      }
    }
    if (p.pairs > 0) {
      p.accuracy = static_cast<double>(correct) / static_cast<double>(p.pairs);
      p.gap_cycles = gap_sum / static_cast<double>(p.pairs);
    }
    out.push_back(p);
  }
  return out;
}

double LoadLoopProfile::top4_mean() const {
  if (top4_iterations.empty()) return 0.0;
  u64 sum = 0;
  for (u64 v : top4_iterations) sum += v;
  return static_cast<double>(sum) / static_cast<double>(top4_iterations.size());
}

LoadLoopProfile analyze_load_loops(const Kernel& kernel) {
  // A static load executes once per warp per pass of its enclosing loops.
  LoadLoopProfile prof;
  std::vector<u64> executions;
  for (u32 i = 0; i < kernel.instructions().size(); ++i) {
    const Instruction& ins = kernel.instruction(i);
    if (ins.op != Opcode::kMem || !ins.is_load) continue;
    ++prof.total_loads;
    executions.push_back(kernel.issues(i));
    if (executions.back() > 1) ++prof.repeated_loads;
  }
  std::sort(executions.rbegin(), executions.rend());
  executions.resize(std::min<std::size_t>(executions.size(), 4));
  prof.top4_iterations = executions;
  return prof;
}

}  // namespace caps
