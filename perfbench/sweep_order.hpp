// Job lists of the CAPSim benchmark and the seed-driven submission order.
//
// The seed only permutes the order jobs are handed to run_sweep(); results
// are put back in canonical order, so every simulated statistic (and every
// digest the benchmark prints) is independent of it.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

namespace caps::perfbench {

/// Canonical Fig. 10 order: kernel-major, BASE then the seven-engine legend,
/// each engine with its default scheduler.
inline std::vector<RunConfig> fig10_configs(
    const std::vector<std::string>& kernels) {
  std::vector<RunConfig> out;
  for (const std::string& k : kernels) {
    RunConfig rc;
    rc.workload = k;
    rc.prefetcher = PrefetcherKind::kNone;
    out.push_back(rc);
    for (PrefetcherKind pf : prefetcher_legend()) {
      rc.prefetcher = pf;
      out.push_back(rc);
    }
  }
  return out;
}

/// Deterministic Fisher-Yates permutation of [0, n) drawn from (seed, salt).
inline std::vector<std::size_t> permutation(u64 seed, u64 salt,
                                            std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const u64 j = hash_combine(seed, salt, i) % i;
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

/// Submit cfgs[idx[order[0]]], cfgs[idx[order[1]]], ... to run_sweep() on
/// `threads` workers; result i belongs to cfgs[idx[i]].
inline std::vector<RunResult> run_in_order(
    const std::vector<RunConfig>& cfgs, const std::vector<std::size_t>& idx,
    const std::vector<std::size_t>& order, u32 threads) {
  std::vector<RunConfig> jobs;
  jobs.reserve(order.size());
  for (std::size_t o : order) jobs.push_back(cfgs[idx[o]]);
  SweepOptions opt;
  opt.threads = threads;
  std::vector<RunResult> submitted = run_sweep(std::move(jobs), opt);
  std::vector<RunResult> out(idx.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    out[order[i]] = std::move(submitted[i]);
  return out;
}

}  // namespace caps::perfbench
