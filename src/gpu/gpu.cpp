#include "gpu/gpu.hpp"

#include <bit>
#include <sstream>

namespace caps {

namespace {

const GpuConfig& validated(const GpuConfig& cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

Gpu::Gpu(const GpuConfig& cfg, const Kernel& kernel,
         const SmPolicyFactories& policies, TraceSink trace)
    : cfg_(validated(cfg)),
      kernel_(kernel),
      trace_(std::move(trace)),
      mem_(cfg),
      distributor_(kernel.grid(), cfg.num_sms) {
  for (u32 i = 0; i < cfg_.num_sms; ++i)
    sms_.push_back(std::make_unique<StreamingMultiprocessor>(
        cfg_, i, kernel_, mem_, policies, trace_ ? &trace_ : nullptr));
}

void Gpu::dispatch_ctas() {
  // One pass per cycle: offer CTAs to SMs starting at the round-robin
  // cursor. During the initial fill this hands out CTAs one at a time in SM
  // order (Fig. 3); afterwards any SM with a freed slot gets the next CTA,
  // i.e. assignment becomes demand-driven by CTA termination order.
  // The pass ends when no CTA is left or on a full round of refusals,
  // which leaves the cursor where that round started.
  u32 scanned = 0;
  while (!distributor_.all_dispatched() && scanned < cfg_.num_sms) {
    const u32 sm_id = distributor_.rr_cursor();
    if (sms_[sm_id]->can_launch_cta()) {
      const Dim3 cta = distributor_.dispatch(sm_id, cycle_);
      const bool ok = sms_[sm_id]->launch_cta(cta, cycle_);
      CAPS_CHECK(ok, "CTA launch failed after can_launch_cta()");
      scanned = 0;  // a launch may have opened room elsewhere; rescan
    } else {
      ++scanned;
    }
    distributor_.advance_cursor();
  }
}

void Gpu::step() {
  dispatch_ctas();
  // Each SM the calendar holds due acts only where its due(cycle_) holds.
  for (u64 due = mem_.calendar().take(WakeCalendar::kSm, cycle_); due != 0;
       due &= due - 1)
    sms_[static_cast<u32>(std::countr_zero(due))]->cycle(cycle_);
  mem_.cycle(cycle_);
  ++cycle_;
}

bool Gpu::done() const {
  if (!distributor_.all_dispatched()) return false;
  for (const auto& sm : sms_)
    if (sm->busy()) return false;
  return mem_.idle();
}

u64 Gpu::progress_signature() const {
  // Monotone counters that move whenever the machine does useful work:
  // instructions retire, requests enter the memory system, L2 probes
  // complete, DRAM bursts finish, replies fill L1. A livelocked machine
  // (e.g. an MSHR-full retry spin) advances none of them.
  // A sleep owes only stall, active-cycle and issue-slot counters, so the
  // counters as of each component's last tick are exact for these.
  u64 sig = 0;
  for (u32 c = 0; c < cfg_.num_dram_channels; ++c) {
    const DramStats& d = mem_.channel(c).stats();
    sig += d.reads + d.writes;
  }
  for (u32 p = 0; p < cfg_.num_l2_partitions; ++p)
    sig += mem_.partition(p).stats().accesses;
  for (const auto& sm : sms_) {
    const SmStats& s = sm->ticked_stats();
    sig += s.issued_instructions + s.l1_fills + GpuStats::core_requests(s);
  }
  return sig;
}

void Gpu::check_watchdog() {
  if (cfg_.watchdog_cycles == 0) return;
  const u64 sig = progress_signature();
  if (sig != last_progress_sig_) {
    last_progress_sig_ = sig;
    last_progress_cycle_ = cycle_;
    return;
  }
  if (cycle_ - last_progress_cycle_ < cfg_.watchdog_cycles) return;

  // Attribute the hang to the first SM still holding warps; the snapshot
  // carries every busy SM's per-warp state and queue occupancy regardless.
  i32 suspect = -1;
  u32 stuck_warps = 0;
  for (u32 i = 0; i < sms_.size(); ++i) {
    if (sms_[i]->resident_warps() > 0) {
      if (suspect < 0) suspect = static_cast<i32>(i);
      stuck_warps += sms_[i]->resident_warps();
    }
  }
  std::ostringstream msg;
  msg << "no forward progress for " << (cycle_ - last_progress_cycle_)
      << " cycles (" << stuck_warps << " warps resident, "
      << distributor_.log().size() << "/" << kernel_.grid().count()
      << " CTAs dispatched)";
  throw SimError(SimErrorKind::kDeadlock, msg.str(), cycle_, suspect,
                 snapshot());
}

MachineSnapshot Gpu::snapshot() const {
  MachineSnapshot snap;
  snap.cycle = cycle_;
  SnapshotSection& g = snap.section("gpu");
  {
    std::ostringstream os;
    os << "ctas dispatched " << distributor_.log().size() << "/"
       << kernel_.grid().count() << "  last_progress_cycle "
       << last_progress_cycle_;
    g.lines.push_back(os.str());
  }
  for (const auto& sm : sms_)
    if (sm->busy()) sm->snapshot_into(snap);
  mem_.snapshot_into(snap);
  return snap;
}

GpuStats Gpu::run() {
  // done() walks SMs and memory queues, so it is polled every 64 cycles and
  // every reported cycle count is a multiple of 64. That quantum is not
  // negligible: on short kernels such as CP it is the whole CAPS-vs-BASE
  // difference (BASE 2560 vs CAPS 2496 cycles, 2.5%).
  // perfbench/layer_timing.cpp replicates this cadence, so exact completion
  // needs a benchmark change too (DESIGN.md §13). The watchdog shares the
  // coarse poll: progress counters are compared every 64 cycles, far below
  // the 100k-cycle default trip threshold.
  while (true) {
    if ((cycle_ & 63) == 0) {
      if (done()) break;
      check_watchdog();
    }
    if (cycle_ >= cfg_.max_cycles) {
      hit_limit_ = true;
      break;
    }
    step();
  }
  GpuStats s = collect_stats();
  s.audit_violations = audit(s);
  return s;
}

std::vector<std::string> Gpu::audit(const GpuStats& s) const {
  std::vector<std::string> v;
  auto viol = [&v](std::string what) { v.push_back(std::move(what)); };
  auto expect_eq = [&viol](u64 a, u64 b, const char* what) {
    if (a != b) {
      std::ostringstream os;
      os << what << ": " << a << " != " << b;
      viol(os.str());
    }
  };

  // Registry sweep: every counter in every stats group is checked for a
  // value within 2^62 of wrap. A u64 that high cannot be reached by a real
  // run; it almost certainly means a negative intermediate was converted to
  // unsigned (the exact bug class -Wconversion/-Wsign-conversion guard the
  // sources against, re-checked here at runtime for computed stats).
  constexpr u64 kCounterCeiling = u64{1} << 62;
  auto sweep = [&viol](const char* group, const auto& st) {
    st.for_each_counter([&viol, group](const char* name, u64 value) {
      if (value > kCounterCeiling) {
        std::ostringstream os;
        os << group << "." << name << " = " << value
           << " looks like unsigned underflow";
        viol(os.str());
      }
    });
  };
  sweep("gpu", s);
  s.for_each_group(sweep);

  // Counter identities — hold even when the run stopped at the cycle limit.
  expect_eq(s.sm.l1_hits + s.sm.l1_misses, s.sm.l1_accesses,
            "L1 hits+misses must equal accesses");
  expect_eq(s.l2.hits + s.l2.misses, s.l2.accesses,
            "L2 hits+misses must equal accesses");

  // Drained-state and conservation checks only make sense when the run
  // actually completed; at the cycle limit the machine is legitimately
  // mid-flight.
  if (s.hit_cycle_limit) return v;

  if (!distributor_.all_dispatched())
    viol("CTAs remain undispatched after completion");
  expect_eq(s.ctas_launched, kernel_.grid().count(),
            "launched CTAs must cover the grid");
  expect_eq(s.sm.ctas_completed, kernel_.grid().count(),
            "completed CTAs must cover the grid");
  // Every read request submitted to the memory system must have produced
  // exactly one L1 fill (requests issued == filled; drops are impossible in
  // a clean machine, so a shortfall means a lost reply or leaked MSHR).
  expect_eq(s.sm.l1_fills, s.sm.demand_to_mem + s.sm.pf_issued_to_mem,
            "L1 fills must equal read requests sent to memory");
  for (u32 i = 0; i < sms_.size(); ++i) {
    if (sms_[i]->resident_warps() > 0) {
      std::ostringstream os;
      os << "sm " << i << " still has " << sms_[i]->resident_warps()
         << " resident warps after completion";
      viol(os.str());
    }
    if (!sms_[i]->ldst().idle()) {
      std::ostringstream os;
      os << "sm " << i << " LD/ST unit not drained (demand_q "
         << sms_[i]->ldst().demand_queue_size() << ", mshr "
         << sms_[i]->ldst().mshr().size() << ")";
      viol(os.str());
    }
  }
  if (!mem_.idle()) viol("memory system not drained after completion");
  return v;
}

GpuStats Gpu::collect_stats() const {
  GpuStats out;
  out.cycles = cycle_;
  out.hit_cycle_limit = hit_limit_;
  for (const auto& sm : sms_) {
    out.sm.merge(sm->stats());
    out.pf_engine.merge(sm->prefetcher().engine_stats());
  }
  out.dram = mem_.dram_stats();
  out.l2 = mem_.l2_stats();
  out.ctas_launched = distributor_.log().size();
  return out;
}

}  // namespace caps
