// Helpers every figure binary shares: the skip-and-report gate and the
// means the figure tables print.
#pragma once

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

namespace caps::bench {

/// Skip-and-report gate: true when the run finished clean; otherwise print
/// a one-line diagnostic so a failed configuration is visible in the sweep
/// log without aborting the remaining ones.
inline bool usable(const RunResult& r) {
  if (r.ok()) return true;
  std::fprintf(stderr, "  SKIP %s/%s: %s — %s\n", r.cfg.workload.c_str(),
               to_string(r.cfg.prefetcher), r.outcome(),
               r.error.c_str());
  return false;
}

/// Geometric mean (0 for no samples): the normalized figures' "Mean".
inline double geo_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Arithmetic mean (0 for no samples): the ratio figures' "Mean".
inline double arith_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace caps::bench
