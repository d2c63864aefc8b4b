#include "harness/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

namespace caps {

u32 resolve_sweep_threads(u32 requested, std::size_t jobs) {
  if (jobs == 0) return 1;
  u32 n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;  // the standard allows an unknown concurrency
  }
  if (static_cast<std::size_t>(n) > jobs) n = static_cast<u32>(jobs);
  return n;
}

namespace detail {

void for_each_index(std::size_t n, u32 threads,
                    const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  if (threads <= 1) {
    worker();  // degenerate pool: run inline, same claiming discipline
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (u32 t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

}  // namespace detail

std::vector<RunResult> run_sweep(std::vector<SweepJob> jobs,
                                 const SweepOptions& opt) {
  std::vector<RunResult> results(jobs.size());
  const u32 threads = resolve_sweep_threads(opt.threads, jobs.size());
  detail::for_each_index(jobs.size(), threads, [&](std::size_t i) {
    // Wall timing is a harness annotation, never a model input.
    const auto t0 = std::chrono::steady_clock::now();  // capsim-lint: allow(determinism)
    try {
      results[i] = run_experiment(jobs[i].cfg, jobs[i].trace);
    } catch (const std::exception& e) {
      // run_experiment already captures simulator failures; anything
      // escaping here (bad_alloc, a throwing pre_run_hook) is still
      // confined to this run.
      results[i].cfg = jobs[i].cfg;
      results[i].status = RunStatus::kInvariantViolation;
      results[i].error = std::string("unhandled exception: ") + e.what();
    } catch (...) {
      results[i].cfg = jobs[i].cfg;
      results[i].status = RunStatus::kInvariantViolation;
      results[i].error = "unhandled non-standard exception";
    }
    const auto t1 = std::chrono::steady_clock::now();  // capsim-lint: allow(determinism)
    results[i].wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
  });
  return results;
}

std::vector<RunResult> run_sweep(std::vector<RunConfig> cfgs,
                                 const SweepOptions& opt) {
  std::vector<SweepJob> jobs;
  jobs.reserve(cfgs.size());
  for (RunConfig& c : cfgs) jobs.emplace_back(std::move(c));
  return run_sweep(std::move(jobs), opt);
}

std::string stats_signature(const GpuStats& s) {
  std::ostringstream os;
  s.for_each_counter(
      [&](const char* name, u64 v) { os << name << '=' << v << '\n'; });
  os << "hit_cycle_limit=" << (s.hit_cycle_limit ? 1 : 0) << '\n';
  s.for_each_group([&](const char* g, const auto& st) {
    st.for_each_counter([&](const char* name, u64 v) {
      os << g << '.' << name << '=' << v << '\n';
    });
  });
  // Accumulators render their count and the exact bits (%a) of sum, min and
  // max, so a one-ulp drift in a latency or distance fails the gate too.
  SmStats::for_each_running_stat_member([&](const char* name, auto m) {
    const RunningStat& r = s.sm.*m;
    char bits[96];
    std::snprintf(bits, sizeof bits, "%a/%a/%a", r.sum(), r.min(), r.max());
    os << "sm." << name << "=n " << r.count() << " sum/min/max " << bits
       << '\n';
  });
  for (const std::string& v : s.audit_violations) os << "audit=" << v << '\n';
  return os.str();
}

std::string sweep_signature(const std::vector<RunResult>& results) {
  std::ostringstream os;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    os << "== run " << i << ' ' << r.cfg.workload << '/'
       << to_string(r.cfg.prefetcher) << " sched "
       << to_string(r.scheduler_used) << " status " << to_string(r.status);
    if (!r.error.empty()) os << " error " << r.error;
    os << '\n';
    os << stats_signature(r.stats);
  }
  return os.str();
}

std::string signature_digest(const RunResult& r) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const char c : sweep_signature({r})) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace caps
