// Top-level GPU: SM array + memory system + CTA distributor, clocked in
// lockstep. Gpu::run() executes one kernel to completion and returns the
// aggregated statistics every figure of the paper is computed from.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/diag.hpp"
#include "common/stats.hpp"
#include "gpu/cta_distributor.hpp"
#include "gpu/sm.hpp"
#include "gpu/sm_stats.hpp"
#include "isa/kernel.hpp"
#include "mem/memory_system.hpp"

namespace caps {

/// Aggregated result of one simulation run.
struct GpuStats : CounterGroup<GpuStats> {
  Cycle cycles = 0;
  bool hit_cycle_limit = false;
  SmStats sm;             ///< summed over SMs
  PrefetchEngineStats pf_engine;  ///< summed over SM prefetch engines
  DramStats dram;
  L2Stats l2;
  u64 ctas_launched = 0;
  /// End-of-run invariant auditor findings; empty means the machine finished
  /// with fully drained, conserved state. Populated by Gpu::run().
  std::vector<std::string> audit_violations;

  bool audit_clean() const { return audit_violations.empty(); }

  /// Counter registry (see stats.hpp) for the top-level counters only:
  /// merge() and for_each_counter() do not reach the nested groups.
  template <typename F>
  static void for_each_counter_member(F&& f) {
    f("cycles", &GpuStats::cycles);
    f("ctas_launched", &GpuStats::ctas_launched);
  }

  /// Calls f(name, group) for each nested group, in signature order; the
  /// one list of them that Gpu::audit() and stats_signature() iterate.
  template <typename F>
  void for_each_group(F&& f) const {
    f("sm", sm);
    f("pf_engine", pf_engine);
    f("dram", dram);
    f("l2", l2);
  }

  /// Thread-instruction IPC (warp instructions * warp size / cycles),
  /// matching how GPGPU-Sim reports IPC.
  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(sm.issued_instructions) *
                             kWarpSize / static_cast<double>(cycles);
  }
  /// Requests the SMs sent to memory: demand misses, prefetches and stores.
  u64 core_requests() const { return core_requests(sm); }
  static u64 core_requests(const SmStats& s) {
    return s.demand_to_mem + s.pf_issued_to_mem + s.stores_to_mem;
  }
  double l1_miss_rate() const { return ratio(sm.l1_misses, sm.l1_accesses); }
  /// Prefetch coverage: issued prefetches over all demand fetches that
  /// needed data from memory (remaining demand misses plus the fetches the
  /// prefetcher serviced).
  double pf_coverage() const {
    return ratio(sm.pf_issued_to_mem,
                 sm.demand_to_mem + sm.pf_useful + sm.pf_useful_late);
  }
  /// Prefetch accuracy: prefetches consumed by a demand / prefetches issued.
  double pf_accuracy() const {
    return ratio(sm.pf_useful + sm.pf_useful_late, sm.pf_issued_to_mem);
  }
  /// Early-prefetch ratio: prefetched lines evicted before use.
  double pf_early_ratio() const {
    return ratio(sm.pf_early_evicted,
                 sm.pf_useful + sm.pf_useful_late + sm.pf_early_evicted);
  }
};

class Gpu {
 public:
  Gpu(const GpuConfig& cfg, const Kernel& kernel,
      const SmPolicyFactories& policies, TraceSink trace = nullptr);
  // SMs keep pointers to trace_ and references to mem_.
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  /// Run the kernel to completion (or the configured cycle limit). Throws
  /// SimError(kDeadlock) with a machine snapshot if the forward-progress
  /// watchdog trips; on normal completion the invariant auditor's findings
  /// are attached to the returned stats.
  GpuStats run();

  /// Single-step interface for tests; perfbench and the microbenchmarks
  /// step it too.
  void step();
  bool done() const;
  Cycle now() const { return cycle_; }

  const CtaDistributor& distributor() const { return distributor_; }
  const StreamingMultiprocessor& sm(u32 i) const { return *sms_[i]; }
  const MemorySystem& memory() const { return mem_; }
  GpuStats collect_stats() const;

  /// Structured dump of all live machine state (busy SMs, queue occupancy,
  /// outstanding MSHR lines). Cheap enough to call from error paths only.
  MachineSnapshot snapshot() const;

  /// End-of-run invariant auditor: conservation (every request filled,
  /// every CTA retired) and drained-state checks against `s` (stats
  /// collected from this GPU). Returns violation descriptions; empty=clean.
  std::vector<std::string> audit(const GpuStats& s) const;

  /// Mutable access for fault-injection tests (wedge warps, drop replies).
  StreamingMultiprocessor& sm_for_test(u32 i) { return *sms_[i]; }
  MemorySystem& memory_for_test() { return mem_; }

 private:
  void dispatch_ctas();
  /// Throws SimError(kDeadlock) when no progress counter has moved for
  /// cfg_.watchdog_cycles. Called on a coarse grain from run().
  void check_watchdog();
  u64 progress_signature() const;

  GpuConfig cfg_;
  const Kernel& kernel_;
  TraceSink trace_;  ///< shared by every SM; empty when tracing is off
  MemorySystem mem_;
  std::vector<std::unique_ptr<StreamingMultiprocessor>> sms_;
  CtaDistributor distributor_;
  Cycle cycle_ = 0;
  bool hit_limit_ = false;
  u64 last_progress_sig_ = 0;
  Cycle last_progress_cycle_ = 0;
};

}  // namespace caps
