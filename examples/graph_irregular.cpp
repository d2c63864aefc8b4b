// Irregular (graph) workloads: shows CAPS's quality control in action on
// BFS-style kernels — thread-indexed metadata loads are prefetched, the
// data-dependent neighbour accesses are excluded up front, and mispredicted
// striding loads are throttled by the DIST counter.
#include <cstdio>

#include "harness/experiment.hpp"
#include "workloads/workload.hpp"

using namespace caps;

int main() {
  std::printf("CAPS on the irregular suite (PVR, CCL, BFS, KM)\n\n");
  std::printf("%-5s %9s %9s %9s %10s %11s %11s %10s\n", "bench", "base-cyc",
              "caps-cyc", "speedup", "coverage", "accuracy", "excl.indir",
              "mispred");

  bool all_ok = true;
  for (const std::string& name : irregular_workload_names()) {
    RunConfig rc;
    rc.workload = name;
    rc.prefetcher = PrefetcherKind::kNone;
    const RunResult base = run_experiment(rc);
    rc.prefetcher = PrefetcherKind::kCaps;
    const RunResult caps_run = run_experiment(rc);
    for (const RunResult* r : {&base, &caps_run}) {
      if (r->ok()) continue;
      std::fprintf(stderr, "%s: run failed: %s %s\n", name.c_str(),
                   r->outcome(), r->error.c_str());
      all_ok = false;
    }

    const GpuStats& s = caps_run.stats;
    std::printf("%-5s %9llu %9llu %8.3fx %9.1f%% %10.1f%% %11llu %10llu\n",
                name.c_str(),
                static_cast<unsigned long long>(base.stats.cycles),
                static_cast<unsigned long long>(s.cycles),
                static_cast<double>(base.stats.cycles) /
                    static_cast<double>(s.cycles),
                100.0 * s.pf_coverage(), 100.0 * s.pf_accuracy(),
                static_cast<unsigned long long>(s.pf_engine.excluded_indirect),
                static_cast<unsigned long long>(s.pf_engine.mispredictions));
  }

  std::printf("\nReading the table: coverage is low by design (indirect\n"
              "accesses are excluded via the register-trace oracle), but\n"
              "what CAPS does prefetch — the thread-indexed metadata like\n"
              "g_graph_mask[tid] in Fig. 6b — it prefetches accurately, so\n"
              "the irregular suite still comes out ahead (paper: +6%%).\n");
  return all_ok ? 0 : 1;
}
