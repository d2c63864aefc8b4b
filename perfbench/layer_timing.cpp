#include "layer_timing.hpp"

#include <exception>
#include <utility>
#include <vector>

#include "workloads/workload.hpp"

namespace caps::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Run `f`, adding its duration to `ns`.
template <typename F>
auto timed(std::int64_t& ns, F&& f) {
  const auto t0 = Clock::now();
  struct Add {
    std::int64_t& ns;
    Clock::time_point t0;
    ~Add() {
      ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
    }
  } add{ns, t0};
  return f();
}

class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(std::unique_ptr<Scheduler> inner, const GpuConfig& cfg,
                 std::vector<WarpContext>& warps, LayerClock& clock)
      : Scheduler(cfg, warps, nullptr, nullptr),
        inner_(std::move(inner)),
        clock_(clock) {}

 private:
  // Defined before its users: they deduce their return type from it.
  template <typename F>
  auto call(F&& f) {
    return timed(clock_.sched_ns, std::forward<F>(f));
  }

 public:
  void on_cta_launch(u32 cta_slot, u32 first_warp, u32 num_warps) override {
    call([&] { inner_->on_cta_launch(cta_slot, first_warp, num_warps); });
  }
  void on_warp_done(u32 slot) override {
    call([&] { inner_->on_warp_done(slot); });
  }
  void on_loads_complete(u32 slot) override {
    call([&] { inner_->on_loads_complete(slot); });
  }
  void on_prefetch_fill(u32 slot) override {
    call([&] { inner_->on_prefetch_fill(slot); });
  }
  void on_global_access(u32 slot) override {
    call([&] { inner_->on_global_access(slot); });
  }
  i32 pick(Cycle now) override {
    ++clock_.pick_calls;
    return call([&] { return inner_->pick(now); });
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  LayerClock& clock_;
};

/// Forwards to the inner engine and mirrors its counters after every call,
/// because Gpu::collect_stats() reads engine_stats() of the outer object.
class TimedPrefetcher final : public Prefetcher {
 public:
  TimedPrefetcher(std::unique_ptr<Prefetcher> inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void on_load_issue(const LoadIssueInfo& info,
                     std::vector<PrefetchRequest>& out) override {
    call([&] { inner_->on_load_issue(info, out); });
  }
  void on_demand_miss(Addr line, Addr pc, i32 warp_slot,
                      std::vector<PrefetchRequest>& out) override {
    call([&] { inner_->on_demand_miss(line, pc, warp_slot, out); });
  }
  void on_cta_launch(u32 cta_slot, const Dim3& cta_id, u32 first_warp_slot,
                     u32 num_warps) override {
    call([&] {
      inner_->on_cta_launch(cta_slot, cta_id, first_warp_slot, num_warps);
    });
  }
  void on_cta_complete(u32 cta_slot) override {
    call([&] { inner_->on_cta_complete(cta_slot); });
  }
  const char* name() const override { return inner_->name(); }

 private:
  template <typename F>
  void call(F&& f) {
    ++clock_.prefetch_calls;
    timed(clock_.prefetch_ns, std::forward<F>(f));
    stats_ = inner_->engine_stats();
  }

  std::unique_ptr<Prefetcher> inner_;
  LayerClock& clock_;
};

}  // namespace

SmPolicyFactories timed_policies(SmPolicyFactories inner, LayerClock& clock) {
  SmPolicyFactories p;
  p.make_prefetcher = [inner, &clock](const GpuConfig& cfg) {
    return std::unique_ptr<Prefetcher>(
        new TimedPrefetcher(inner.make_prefetcher(cfg), clock));
  };
  p.make_scheduler = [inner, &clock](const GpuConfig& cfg,
                                     std::vector<WarpContext>& warps,
                                     std::function<bool(u32, Cycle)> eligible,
                                     std::function<bool(u32)> waiting_mem) {
    return std::unique_ptr<Scheduler>(new TimedScheduler(
        inner.make_scheduler(cfg, warps, std::move(eligible),
                             std::move(waiting_mem)),
        cfg, warps, clock));
  };
  return p;
}

TracedRun run_traced(const RunConfig& cfg) {
  TracedRun r;
  try {
    // Configuration resolution mirrors run_experiment().
    const Workload& w = find_workload(cfg.workload);
    GpuConfig gc = cfg.base;
    gc.prefetcher = cfg.prefetcher;
    if (cfg.max_ctas_per_sm) gc.max_ctas_per_sm = *cfg.max_ctas_per_sm;
    if (cfg.max_cycles) gc.max_cycles = *cfg.max_cycles;
    if (cfg.watchdog_cycles) gc.watchdog_cycles = *cfg.watchdog_cycles;
    gc.caps.eager_wakeup = cfg.caps_eager_wakeup;
    r.scheduler_used =
        cfg.scheduler.value_or(default_scheduler_for(cfg.prefetcher));
    gc.scheduler = r.scheduler_used;
    const SmPolicyFactories policies = timed_policies(
        make_policies(cfg.prefetcher, r.scheduler_used, cfg.caps_eager_wakeup),
        r.clock);

    auto t0 = Clock::now();
    Gpu gpu(gc, w.kernel, policies);
    r.construct_s = seconds_since(t0);

    // Gpu::run()'s loop, with its coarse done() poll kept at the same
    // 64-cycle grain so the final cycle count is identical.
    std::int64_t step_ns = 0;
    std::int64_t poll_ns = 0;
    bool hit_limit = false;
    while (true) {
      if ((gpu.now() & 63) == 0 &&
          timed(poll_ns, [&] { return gpu.done(); }))
        break;
      if (gpu.now() >= gc.max_cycles) {
        hit_limit = true;
        break;
      }
      timed(step_ns, [&] { gpu.step(); });
    }
    r.step_s = static_cast<double>(step_ns) * 1e-9;
    r.done_poll_s = static_cast<double>(poll_ns) * 1e-9;

    t0 = Clock::now();
    r.stats = gpu.collect_stats();
    r.stats.audit_violations = gpu.audit(r.stats);
    r.audit_s = seconds_since(t0);
    r.request_xbar = gpu.memory().request_xbar_stats();

    if (hit_limit)
      r.error = "hit the cycle limit";
    else if (!r.stats.audit_clean())
      r.error = "invariant audit failed: " + r.stats.audit_violations.front();
    r.ok = r.error.empty();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

}  // namespace caps::perfbench
