// Post-processing of load-issue traces (Fig. 1) and static/dynamic kernel
// load analysis (Fig. 4).
#pragma once

#include <map>
#include <vector>

#include "gpu/trace.hpp"
#include "isa/kernel.hpp"

namespace caps {

/// Collects the load-issue events of a run. Pass collector.sink() as the
/// run's TraceSink; events of other kinds are ignored.
class LoadTraceCollector {
 public:
  TraceSink sink() {
    return [this](const TraceEvent& e) {
      if (e.kind == TraceKind::kLoadIssue) events_.push_back(e);
    };
  }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// PC of the most frequently issued load.
  Addr hottest_pc() const;

 private:
  std::vector<TraceEvent> events_;
};

/// One point of the Fig. 1 experiment.
struct StrideDistancePoint {
  u32 distance = 0;        ///< warp-slot distance between base and target
  double accuracy = 0.0;   ///< fraction of pairs where base+d*stride matched
  double gap_cycles = 0.0; ///< mean issue-cycle gap between the two warps
  u64 pairs = 0;
};

/// Reproduce Fig. 1: naive inter-warp stride prediction accuracy and issue
/// gap as a function of warp distance, computed from the first generation
/// of warps on each SM for the hottest load PC.
std::vector<StrideDistancePoint> analyze_stride_distance(
    const std::vector<TraceEvent>& events, Addr pc, u32 max_distance);

/// Fig. 4 static+dynamic load analysis of a kernel.
struct LoadLoopProfile {
  u32 total_loads = 0;     ///< static global-load PCs
  u32 repeated_loads = 0;  ///< loads executed more than once per warp
  /// Executions per warp of the four most frequently executed loads.
  std::vector<u64> top4_iterations;
  double top4_mean() const;
};

LoadLoopProfile analyze_load_loops(const Kernel& kernel);

}  // namespace caps
