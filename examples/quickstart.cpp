// Quickstart: run one benchmark (matrixMul) with and without CAPS and print
// the headline statistics. This is the 30-second tour of the public API:
//
//   find_workload()   -> a ready-made Table IV kernel
//   RunConfig         -> machine + policy selection (Table III defaults)
//   run_experiment()  -> cycle-accurate simulation -> GpuStats
#include <cstdio>

#include "harness/experiment.hpp"
#include "workloads/workload.hpp"

using namespace caps;

int main() {
  const Workload& mm = find_workload("MM");
  std::printf("workload: %s (%s), grid %s, block %s, %u warps/CTA\n\n",
              mm.abbr.c_str(), mm.full_name.c_str(),
              format_dim3(mm.kernel.grid()).c_str(),
              format_dim3(mm.kernel.block()).c_str(),
              mm.kernel.warps_per_cta());

  RunConfig base;
  base.workload = "MM";
  base.prefetcher = PrefetcherKind::kNone;
  const RunResult baseline = run_experiment(base);

  RunConfig caps_cfg = base;
  caps_cfg.prefetcher = PrefetcherKind::kCaps;  // implies the PAS scheduler
  const RunResult caps_run = run_experiment(caps_cfg);

  auto report = [](const char* label, const RunResult& r) {
    const GpuStats& s = r.stats;
    std::printf("%-18s cycles=%8llu  IPC=%7.1f  L1 miss=%5.1f%%  "
                "pf coverage=%5.1f%%  pf accuracy=%5.1f%%\n",
                label, static_cast<unsigned long long>(s.cycles), s.ipc(),
                100.0 * s.l1_miss_rate(), 100.0 * s.pf_coverage(),
                100.0 * s.pf_accuracy());
  };
  report("baseline (TLV)", baseline);
  report("CAPS (CAP+PAS)", caps_run);

  std::printf("\nspeedup: %.3fx\n",
              static_cast<double>(baseline.stats.cycles) /
                  static_cast<double>(caps_run.stats.cycles));

  // The CTA distributor at work (Fig. 3): first assignments are round-robin
  // across SMs, later ones demand-driven.
  RunConfig tiny = base;
  tiny.base.num_sms = 3;
  tiny.base.max_ctas_per_sm = 2;
  SmPolicyFactories pol =
      make_policies(PrefetcherKind::kNone, SchedulerKind::kTwoLevel, true);
  Gpu gpu(tiny.base, mm.kernel, pol);
  bool tiny_ok = false;
  try {
    const GpuStats s = gpu.run();
    tiny_ok = s.audit_clean() && !s.hit_cycle_limit;
  } catch (const SimError& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  std::printf("\nCTA distribution with 3 SMs / 2 CTA slots (first 10):\n  ");
  const auto& log = gpu.distributor().log();
  for (std::size_t i = 0; i < 10 && i < log.size(); ++i)
    std::printf("CTA%u->SM%u  ", log[i].cta_flat, log[i].sm_id);
  std::printf("\n");

  const bool all_ok = baseline.ok() && caps_run.ok() && tiny_ok;
  if (!all_ok) std::fprintf(stderr, "run failed\n");
  return all_ok ? 0 : 1;
}
