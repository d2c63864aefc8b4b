// Parallel sweep executor: runs independent RunConfigs on a pool of worker
// threads and returns results in submission order.
//
// Determinism contract (DESIGN.md §13): each simulation owns all of its
// mutable state (one Gpu per run; the model has no globals and no entropy
// sources), so a sweep executed serially, on one worker, or on N workers
// produces bit-identical GpuStats for every run. Only wall_seconds — the
// harness-side timing annotation — may differ between executions.
//
// Fault isolation matches run_experiment(): a run that deadlocks, trips an
// invariant, or is misconfigured yields a RunResult tagged with the failure;
// an exception escaping a worker is captured into that run's result and the
// remaining runs continue.
#pragma once

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/experiment.hpp"

namespace caps {

/// One unit of work: a configuration plus an optional per-run trace sink.
/// The sink is invoked only from the worker executing this job, so a sink
/// writing to job-local storage needs no synchronization.
struct SweepJob {
  RunConfig cfg;
  TraceSink trace;

  SweepJob() = default;
  SweepJob(RunConfig c) : cfg(std::move(c)) {}  // NOLINT(google-explicit-constructor)
  SweepJob(RunConfig c, TraceSink t)
      : cfg(std::move(c)), trace(std::move(t)) {}
};

struct SweepOptions {
  /// Worker count; 0 means one per hardware thread, capped at the job count.
  u32 threads = 0;
};

/// Resolve an options thread count against the host and the job count.
u32 resolve_sweep_threads(u32 requested, std::size_t jobs);

/// Run every job and return results in submission order (results[i] belongs
/// to jobs[i], whatever order the workers finished in). Each result's
/// wall_seconds records that run's own execution time.
std::vector<RunResult> run_sweep(std::vector<SweepJob> jobs,
                                 const SweepOptions& opt = {});

/// Convenience overload for plain configurations.
std::vector<RunResult> run_sweep(std::vector<RunConfig> cfgs,
                                 const SweepOptions& opt = {});

namespace detail {
/// Run fn(i) for every i in [0, n) on `threads` workers. Indices are claimed
/// in order from a shared counter; distinct indices run concurrently. `fn`
/// must be thread-safe across distinct indices and must not throw (callers
/// capture failures into their per-index result instead).
void for_each_index(std::size_t n, u32 threads,
                    const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Ordered parallel map for self-contained per-item work, such as perfbench's
/// traced runs. out[i] = fn(items[i]); `fn` must not throw (it captures its
/// own failures into its result, as `run_traced` does).
template <typename In, typename Fn>
auto parallel_ordered_map(const std::vector<In>& items, Fn fn,
                          const SweepOptions& opt = {}) {
  using Out = std::invoke_result_t<Fn&, const In&>;
  std::vector<Out> out(items.size());
  detail::for_each_index(
      items.size(), resolve_sweep_threads(opt.threads, items.size()),
      [&](std::size_t i) { out[i] = fn(items[i]); });
  return out;
}

/// Canonical text rendering of every statistics counter of one run, one
/// `name=value` line per counter and per RunningStat (its count and the
/// exact bits of sum, min and max; nested groups prefixed, audit findings
/// appended). Two runs of the same configuration are bit-identical iff
/// their signatures are byte-identical — the determinism regression test
/// and capsim-bench both compare these.
std::string stats_signature(const GpuStats& s);

/// Signature of a whole sweep: per-run header (workload, prefetcher,
/// status, error) plus each run's stats_signature. Excludes wall_seconds,
/// which is timing annotation, not simulation output.
std::string sweep_signature(const std::vector<RunResult>& results);

/// 16-hex-digit FNV-1a digest of one run's sweep_signature entry. The
/// golden digest files and capsim-bench reports record this value.
std::string signature_digest(const RunResult& r);

}  // namespace caps
