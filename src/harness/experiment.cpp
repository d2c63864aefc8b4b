#include "harness/experiment.hpp"

#include <stdexcept>
#include <utility>

#include "core/caps_prefetcher.hpp"
#include "core/pas_scheduler.hpp"
#include "prefetch/lap.hpp"
#include "prefetch/nlp.hpp"
#include "prefetch/stride_prefetchers.hpp"

namespace caps {

SchedulerKind default_scheduler_for(PrefetcherKind pf) {
  switch (pf) {
    case PrefetcherKind::kCaps:
      return SchedulerKind::kPas;
    case PrefetcherKind::kOrch:
      return SchedulerKind::kOrch;
    case PrefetcherKind::kNone:
    case PrefetcherKind::kIntra:
    case PrefetcherKind::kInter:
    case PrefetcherKind::kMta:
    case PrefetcherKind::kNlp:
    case PrefetcherKind::kLap:
      return SchedulerKind::kTwoLevel;
  }
  return SchedulerKind::kTwoLevel;
}

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kDeadlock: return "deadlock";
    case RunStatus::kInvariantViolation: return "invariant_violation";
    case RunStatus::kConfigError: return "config_error";
  }
  return "?";
}

SmPolicyFactories make_policies(PrefetcherKind pf, SchedulerKind sched,
                                bool caps_eager_wakeup) {
  SmPolicyFactories p;
  p.make_prefetcher = [pf](const GpuConfig& cfg) -> std::unique_ptr<Prefetcher> {
    switch (pf) {
      case PrefetcherKind::kNone:
        return std::make_unique<NullPrefetcher>();
      case PrefetcherKind::kIntra:
        return std::make_unique<IntraWarpPrefetcher>(cfg);
      case PrefetcherKind::kInter:
        return std::make_unique<InterWarpPrefetcher>(cfg);
      case PrefetcherKind::kMta:
        return std::make_unique<MtaPrefetcher>(cfg);
      case PrefetcherKind::kNlp:
        return std::make_unique<NextLinePrefetcher>(cfg);
      case PrefetcherKind::kLap:
      case PrefetcherKind::kOrch:  // ORCH's scheduling half is OrchScheduler
        return std::make_unique<LocalityAwarePrefetcher>(cfg);
      case PrefetcherKind::kCaps:
        return std::make_unique<CapsPrefetcher>(cfg);
    }
    throw std::invalid_argument("make_policies: unknown prefetcher kind");
  };
  // The factory type still passes two warp predicates; nothing reads them.
  p.make_scheduler = [sched, caps_eager_wakeup](
                         const GpuConfig& cfg, std::vector<WarpContext>& warps,
                         auto&&...) -> std::unique_ptr<Scheduler> {
    switch (sched) {
      case SchedulerKind::kLrr:
        return std::make_unique<LrrScheduler>(cfg, warps);
      case SchedulerKind::kGto:
        return std::make_unique<GtoScheduler>(cfg, warps);
      case SchedulerKind::kTwoLevel:
        return std::make_unique<TwoLevelScheduler>(cfg, warps);
      case SchedulerKind::kOrch:
        return std::make_unique<OrchScheduler>(cfg, warps);
      case SchedulerKind::kPas:
        return std::make_unique<PasScheduler>(cfg, warps, caps_eager_wakeup);
    }
    throw std::invalid_argument("make_policies: unknown scheduler kind");
  };
  return p;
}

namespace {

RunResult run_experiment_unchecked(const RunConfig& cfg, TraceSink trace) {
  const Workload& w = find_workload(cfg.workload);
  GpuConfig gc = cfg.base;
  gc.prefetcher = cfg.prefetcher;
  if (cfg.max_ctas_per_sm) gc.max_ctas_per_sm = *cfg.max_ctas_per_sm;
  if (cfg.max_cycles) gc.max_cycles = *cfg.max_cycles;
  if (cfg.watchdog_cycles) gc.watchdog_cycles = *cfg.watchdog_cycles;
  gc.caps.eager_wakeup = cfg.caps_eager_wakeup;
  const SchedulerKind sched =
      cfg.scheduler.value_or(default_scheduler_for(cfg.prefetcher));
  gc.scheduler = sched;

  SmPolicyFactories policies =
      make_policies(cfg.prefetcher, sched, cfg.caps_eager_wakeup);
  Gpu gpu(gc, w.kernel, policies, std::move(trace));
  if (cfg.pre_run_hook) cfg.pre_run_hook(gpu);

  RunResult r;
  r.cfg = cfg;
  r.scheduler_used = sched;
  r.stats = gpu.run();
  if (!r.stats.audit_clean()) {
    r.status = RunStatus::kInvariantViolation;
    r.error = "invariant audit failed: " + r.stats.audit_violations.front();
    if (r.stats.audit_violations.size() > 1)
      r.error += " (+" +
                 std::to_string(r.stats.audit_violations.size() - 1) +
                 " more)";
    r.snapshot = gpu.snapshot();
  }
  return r;
}

}  // namespace

RunFault current_run_fault() {
  try {
    throw;
  } catch (const SimError& e) {
    RunFault f;
    if (e.kind() == SimErrorKind::kDeadlock)
      f.status = RunStatus::kDeadlock;
    else if (e.kind() == SimErrorKind::kConfigError)
      f.status = RunStatus::kConfigError;
    f.error = e.what();
    f.snapshot = e.snapshot();
    return f;
  } catch (const std::invalid_argument& e) {
    RunFault f;
    f.status = RunStatus::kConfigError;
    f.error = e.what();
    return f;
  }
}

RunResult run_experiment(const RunConfig& cfg, TraceSink trace) {
  RunResult r;
  r.cfg = cfg;
  try {
    return run_experiment_unchecked(cfg, std::move(trace));
  } catch (const std::out_of_range& e) {
    // Unknown workload abbreviation.
    r.status = RunStatus::kConfigError;
    r.error = e.what();
  } catch (...) {
    RunFault f = current_run_fault();
    r.status = f.status;
    r.error = std::move(f.error);
    r.snapshot = std::move(f.snapshot);
  }
  return r;
}

const std::vector<PrefetcherKind>& prefetcher_legend() {
  static const std::vector<PrefetcherKind> legend = {
      PrefetcherKind::kIntra, PrefetcherKind::kInter, PrefetcherKind::kMta,
      PrefetcherKind::kNlp,   PrefetcherKind::kLap,   PrefetcherKind::kOrch,
      PrefetcherKind::kCaps};
  return legend;
}

std::vector<std::string> fig10_workloads(bool quick) {
  if (quick) return {"MM", "LPS", "CNV", "BFS"};
  std::vector<std::string> all;
  for (const Workload& w : workload_suite()) all.push_back(w.abbr);
  return all;
}

std::vector<RunConfig> fig10_matrix(const std::vector<std::string>& workloads) {
  std::vector<RunConfig> cfgs;
  cfgs.reserve(workloads.size() * (1 + prefetcher_legend().size()));
  for (const std::string& wl : workloads) {
    RunConfig rc;
    rc.workload = wl;
    cfgs.push_back(rc);
    for (PrefetcherKind pf : prefetcher_legend()) {
      rc.prefetcher = pf;
      cfgs.push_back(rc);
    }
  }
  return cfgs;
}

}  // namespace caps
