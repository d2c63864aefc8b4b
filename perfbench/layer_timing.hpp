// Outside-in layer timing for the CAPSim benchmark.
//
// The traced run builds each Gpu through its public constructor with the
// scheduler and prefetch engine of make_policies() wrapped in forwarding
// decorators that time every virtual call, then steps it with Gpu::step()
// on the same 64-cycle done() cadence as Gpu::run(). Nothing inside the
// simulator is instrumented, so the traced run must reproduce the untraced
// run's stats_signature byte for byte; the benchmark checks that it does.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "harness/experiment.hpp"
#include "mem/interconnect.hpp"

namespace caps::perfbench {

/// Host time and call counts of the policy layers of one simulation. All
/// SMs of a run share one clock; a run executes on one thread.
struct LayerClock {
  std::int64_t sched_ns = 0;  ///< every Scheduler virtual call
  std::uint64_t pick_calls = 0;
  std::int64_t prefetch_ns = 0;  ///< every Prefetcher virtual call
  std::uint64_t prefetch_calls = 0;
};

/// Wrap both factories of `inner` so every scheduler and prefetcher call is
/// timed into `clock`. `clock` must outlive every Gpu built from the result.
SmPolicyFactories timed_policies(SmPolicyFactories inner, LayerClock& clock);

/// One simulation executed with layer timing.
struct TracedRun {
  GpuStats stats;
  SchedulerKind scheduler_used = SchedulerKind::kTwoLevel;
  bool ok = false;
  std::string error;  ///< empty when ok
  LayerClock clock;
  double construct_s = 0;  ///< Gpu constructor
  double step_s = 0;       ///< every Gpu::step() call
  double done_poll_s = 0;  ///< every Gpu::done() poll
  double audit_s = 0;      ///< collect_stats() plus audit()
  XbarStats request_xbar;
};

/// Run `cfg` as run_experiment() would, through Gpu::step() and the timed
/// policies. Never throws; failures land in `error`.
TracedRun run_traced(const RunConfig& cfg);

/// Seconds elapsed since `t0` on the steady clock.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace caps::perfbench
