// Shared driver for the Fig. 10/12/13/15 experiment matrix: every Table IV
// workload under BASE + the seven prefetchers. `--quick` restricts to a
// four-benchmark subset for smoke runs.
#pragma once

#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

namespace caps::bench {

inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") return true;
  return false;
}

/// Skip-and-report gate: true when the run finished clean; otherwise print
/// a one-line diagnostic so a failed configuration is visible in the sweep
/// log without aborting the remaining ones.
inline bool usable(const RunResult& r) {
  if (r.ok()) return true;
  std::fprintf(stderr, "  SKIP %s/%s: %s — %s\n", r.cfg.workload.c_str(),
               to_string(r.cfg.prefetcher), to_string(r.status),
               r.error.c_str());
  return false;
}

/// results[workload][config-index]: index 0 = BASE, then the Fig. 10 legend.
using Matrix = std::map<std::string, std::vector<RunResult>>;

inline Matrix run_matrix(const std::vector<std::string>& workloads,
                         const SweepOptions& opt = {}) {
  // Flatten the whole matrix (workloads x 8 configurations) into one sweep
  // so the executor can keep every worker busy across workload boundaries.
  std::vector<RunConfig> cfgs = fig10_matrix(workloads);
  std::fprintf(stderr, "  running %zu configurations on %u thread(s)...\n",
               cfgs.size(),
               resolve_sweep_threads(opt.threads, cfgs.size()));
  std::vector<RunResult> runs = run_sweep(std::move(cfgs), opt);

  Matrix m;
  const std::size_t per_wl = 1 + prefetcher_legend().size();
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    auto first = runs.begin() + static_cast<std::ptrdiff_t>(w * per_wl);
    std::vector<RunResult> slice(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(per_wl)));
    for (const RunResult& r : slice) usable(r);  // report failures up front
    m[workloads[w]] = std::move(slice);
  }
  return m;
}

/// Geometric-mean helper used for the "Mean" columns of the figures.
inline double geo_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace caps::bench
