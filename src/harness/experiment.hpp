// Experiment runner: wires a workload, a scheduler, and a prefetch engine
// into a Gpu and runs it. Every bench binary and example goes through this
// entry point so configurations stay comparable.
//
// The runner is fault-tolerant: a configuration that deadlocks, trips the
// invariant auditor, or is inconsistently configured produces a RunResult
// tagged with the failure and its machine snapshot instead of tearing down
// the whole sweep.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/diag.hpp"
#include "gpu/gpu.hpp"
#include "workloads/workload.hpp"

namespace caps {

/// One simulation configuration.
struct RunConfig {
  std::string workload;                      ///< abbreviation, e.g. "MM"
  PrefetcherKind prefetcher = PrefetcherKind::kNone;
  /// Scheduler override. Default: the pairing the paper evaluates — PAS for
  /// CAPS, the orchestrated two-level for ORCH, plain two-level otherwise.
  std::optional<SchedulerKind> scheduler;
  /// Concurrent-CTA cap per SM (Fig. 11 sweep).
  std::optional<u32> max_ctas_per_sm;
  /// CAPS eager wake-up toggle (Fig. 14a ablation).
  bool caps_eager_wakeup = true;
  /// Cycle-budget override: cap this run shorter (or longer) than the
  /// machine default without cloning the whole base config.
  std::optional<u64> max_cycles;
  /// Forward-progress watchdog override (0 disables).
  std::optional<u64> watchdog_cycles;
  /// Test-only: invoked on the constructed Gpu before run(), e.g. to
  /// install fault injection (dropped replies, wedged warps).
  std::function<void(Gpu&)> pre_run_hook;
  /// Base machine config (Table III defaults).
  GpuConfig base{};
};

/// Which scheduler the paper pairs with each prefetcher by default.
SchedulerKind default_scheduler_for(PrefetcherKind pf);

/// How a configuration ended. Everything except kOk means stats are partial
/// (kInvariantViolation) or absent (kDeadlock/kConfigError).
enum class RunStatus {
  kOk,
  kDeadlock,            ///< forward-progress watchdog fired
  kInvariantViolation,  ///< CAPS_CHECK fired or the end-of-run audit failed
  kConfigError,         ///< bad GpuConfig / unknown workload
};

const char* to_string(RunStatus s);

/// How a run failed, classified from the exception that ended it.
struct RunFault {
  RunStatus status = RunStatus::kInvariantViolation;
  std::string error;         ///< what()
  MachineSnapshot snapshot;  ///< a SimError's machine state (else empty)
};

/// The one exception-to-RunStatus mapping, for the exception being handled:
/// a SimError maps by kind (deadlock, configuration error, otherwise
/// invariant violation); std::invalid_argument, which GpuConfig::validate
/// and kernel construction throw, is a configuration error. Call only from
/// a catch block; any other exception is rethrown.
RunFault current_run_fault();

struct RunResult {
  RunConfig cfg;
  SchedulerKind scheduler_used = SchedulerKind::kTwoLevel;
  GpuStats stats;
  RunStatus status = RunStatus::kOk;
  std::string error;          ///< one-line failure summary (empty when ok)
  MachineSnapshot snapshot;   ///< machine state at failure (empty when ok)
  /// Wall-clock time of this run, filled by run_sweep() (0 when the run was
  /// executed directly). Harness annotation only — never simulation output,
  /// and excluded from sweep_signature().
  double wall_seconds = 0.0;

  /// A clean run that finished. A run cut off by max_cycles keeps status
  /// kOk, which its digest renders, but its counters are partial, so it is
  /// not ok(): read stats.hit_cycle_limit to tell it from a fault.
  bool ok() const { return status == RunStatus::kOk && !stats.hit_cycle_limit; }
  /// What ended the run: to_string(status), or "cycle_limit" for a run that
  /// max_cycles cut off.
  const char* outcome() const {
    return status == RunStatus::kOk && stats.hit_cycle_limit
               ? "cycle_limit"
               : to_string(status);
  }
};

/// Build the per-SM policy factories for a resolved configuration. The one
/// place that maps each PrefetcherKind and SchedulerKind to its class.
SmPolicyFactories make_policies(PrefetcherKind pf, SchedulerKind sched,
                                bool caps_eager_wakeup);

/// Run one configuration to completion. Never throws for simulation or
/// configuration failures — inspect RunResult::status.
/// `trace` (optional) receives every TraceEvent of the run.
RunResult run_experiment(const RunConfig& cfg, TraceSink trace = nullptr);

/// The Fig. 10 workloads: all of Table IV, or with `quick` the four-kernel
/// smoke subset (MM, LPS, CNV, BFS) that CI's perf gate and the golden
/// quick gate both run.
std::vector<std::string> fig10_workloads(bool quick);

/// The Fig. 10 matrix over `workloads`: workload-major, each workload under
/// BASE and then the seven prefetchers in legend order.
std::vector<RunConfig> fig10_matrix(const std::vector<std::string>& workloads);

/// The Fig. 10 legend order.
const std::vector<PrefetcherKind>& prefetcher_legend();

}  // namespace caps
