// google-benchmark micro-suite: throughput of the individual simulator
// components (tag probes, MSHR churn and full-MSHR probes, affine and
// indirect coalescing, DRAM scheduling busy, blocked and issuing under
// saturation, the wake calendar's passes and arms, CAPS table operations,
// scheduler picks,
// all-eligible and saturated, a whole-GPU cycle, mixed,
// memory-saturated, in the refused-issue regime, memory-bound and
// issue-bound, and the build of a whole GPU).
#include <benchmark/benchmark.h>

#include <bit>
#include <vector>

#include "common/wake_calendar.hpp"
#include "core/caps_prefetcher.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/gpu.hpp"
#include "harness/experiment.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mshr.hpp"
#include "workloads/workload.hpp"

namespace caps {
namespace {

void BM_CacheProbe(benchmark::State& state) {
  GpuConfig cfg;
  SetAssocCache<L1LineMeta> cache(cfg.l1d);
  for (u32 i = 0; i < cfg.l1d.num_lines(); ++i)
    cache.fill(static_cast<Addr>(i) * 128, L1LineMeta{});
  Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line));
    line = (line + 128) & 0x3FFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbe);

void BM_MshrAllocateFill(benchmark::State& state) {
  GpuConfig cfg;
  Mshr<L1Access> mshr(cfg.l1d.mshr_entries, cfg.l1d.mshr_max_merged);
  std::vector<L1Access> waiters;  // the LD/ST unit's reused fill scratch
  waiters.reserve(cfg.l1d.mshr_max_merged);
  Addr line = 0;
  for (auto _ : state) {
    mshr.allocate(line, L1Access{});
    mshr.fill_into(line, waiters);
    benchmark::DoNotOptimize(waiters.data());
    benchmark::ClobberMemory();
    line += 128;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrAllocateFill);

void BM_MshrProbeFull(benchmark::State& state) {
  // A full L1 MSHR as a demand load head sees it under saturation: one lookup
  // per probe, then a merge into the slot it returns (an entry at its merge
  // capacity is filled and re-allocated), and one probe in four misses
  // every live line and walks all of them.
  GpuConfig cfg;
  Mshr<L1Access> mshr(cfg.l1d.mshr_entries, cfg.l1d.mshr_max_merged);
  std::vector<L1Access> waiters;  // the LD/ST unit's reused fill scratch
  waiters.reserve(cfg.l1d.mshr_max_merged);
  const u32 live = cfg.l1d.mshr_entries;
  for (u32 i = 0; i < live; ++i) mshr.allocate(Addr{i} * 128, L1Access{});
  u64 merges = 0;
  u32 k = 0;
  for (auto _ : state) {
    // Lines 0..live-1 are in flight; every fourth probe is a line past them.
    k = (k + 7) % (live + live / 3);
    const Addr line = Addr{k} * 128;
    const u32 slot = mshr.slot_of(line);
    if (slot != Mshr<L1Access>::kNone) {
      if (!mshr.can_merge_at(slot)) {
        mshr.fill_into(line, waiters);
        mshr.allocate(line, L1Access{});
      } else {
        mshr.merge_at(slot, L1Access{});
        ++merges;
      }
    }
    benchmark::ClobberMemory();
  }
  if (merges == 0 || mshr.size() != live)
    state.SkipWithError("the probes did not merge into a full MSHR");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrProbeFull);

void BM_Coalesce32Lanes(benchmark::State& state) {
  Coalescer co(128);
  AddressPattern p = linear_pattern(0x1000'0000, 4, 256);
  std::vector<Addr> lines;  // the SM's reused coalesce scratch
  lines.reserve(kWarpSize);
  u32 warp = 0;
  for (auto _ : state) {
    co.coalesce_into(p, {256, 1, 1}, {1, 2}, 9, warp, 3, lines);
    benchmark::DoNotOptimize(lines.data());
    benchmark::ClobberMemory();
    warp = (warp + 1) % 8;
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_Coalesce32Lanes);

void BM_CoalesceIndirect32Lanes(benchmark::State& state) {
  // Indirect loads: the argument is indirect_group. Every suite kernel
  // uses the default 8 (four hashed runs of eight lanes); 1 hashes every
  // lane into almost always 32 distinct lines.
  Coalescer co(128);
  AddressPattern p = indirect_pattern(0x2000'0000, 1ULL << 26, 7);
  p.indirect_group = static_cast<u32>(state.range(0));
  std::vector<Addr> lines;  // the SM's reused coalesce scratch
  lines.reserve(kWarpSize);
  u32 warp = 0;
  for (auto _ : state) {
    co.coalesce_into(p, {256, 1, 1}, {1, 2}, 9, warp, 3, lines);
    benchmark::DoNotOptimize(lines.data());
    benchmark::ClobberMemory();
    warp = (warp + 1) % 8;
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_CoalesceIndirect32Lanes)->Arg(8)->Arg(1);

void BM_DramChannelCycle(benchmark::State& state) {
  GpuConfig cfg;
  u64 completed = 0;
  DramChannel ch(cfg);
  Cycle now = 0;
  Addr line = 0;
  for (auto _ : state) {
    if (ch.can_accept()) {
      MemRequest r;
      r.line = line;
      line += 2048;  // spread across banks
      ch.submit(r);
    }
    MemRequest done;
    while (ch.pop_done(now, done)) ++completed;
    ch.cycle(now++);
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannelCycle);

void BM_DramChannelCycleBanksBusy(benchmark::State& state) {
  // A full queue behind banks that are all busy: the cycles a saturated
  // channel spends with nothing to schedule. tRRD = 0 lets one activation
  // start per cycle, so every bank is busy before the first one frees.
  GpuConfig cfg;
  cfg.dram_timing.tRRD = 0;
  DramChannel ch(cfg);
  const auto submit = [&](Addr line) {
    MemRequest r;
    r.line = line;
    ch.submit(r);
  };
  const Addr row_bytes = cfg.dram_row_bytes;
  for (u32 b = 0; b < cfg.dram_banks; ++b) submit(b * row_bytes);
  Cycle now = 0;
  while (ch.queue_size() > 0) ch.cycle(now++);
  // Queue row misses (row 1 of each bank) until the queue is full.
  for (u32 i = 0; ch.can_accept(); ++i)
    submit((cfg.dram_banks + i % cfg.dram_banks) * row_bytes);
  for (auto _ : state) {
    ch.cycle(now);
    benchmark::ClobberMemory();
  }
  if (ch.queue_size() != ch.queue_capacity())
    state.SkipWithError("a command issued: some bank was ready");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannelCycleBanksBusy);

void BM_DramPickSaturated(benchmark::State& state) {
  // A queue kept full of mixed row hits, row misses and writes on every
  // bank, as the irregular kernels keep it. Each iteration steps the channel
  // to its next issuing cycle, so it times one FR-FCFS pick and issue plus
  // the cycles that bank and bus timing skip before it (the
  // cycles_per_cmd counter).
  GpuConfig cfg;
  DramChannel ch(cfg);
  const Addr row_bytes = cfg.dram_row_bytes;
  u64 k = 0;
  const auto refill = [&] {
    while (ch.can_accept()) {
      // Consecutive requests walk the banks; every third one opens a new
      // row, the others return to the bank's first two rows.
      ++k;
      const u64 bank = (k * 5) % cfg.dram_banks;
      const u64 row = k % 3 == 0 ? k % 64 : k % 2;
      MemRequest r;
      r.line = (row * cfg.dram_banks + bank) * row_bytes + (k % 16) * 128;
      r.is_write = k % 7 == 0;
      ch.submit(r);
    }
  };
  Cycle now = 0;
  // One channel cycle; true when it issued a command.
  const auto step = [&] {
    MemRequest done;
    while (ch.pop_done(now, done)) {
    }
    const bool issued = ch.cycle(now++);
    refill();
    return issued;
  };
  // Step to the next issuing cycle; false when none comes within a bound far
  // above any DRAM timing gap (the saturated regime is lost).
  const auto step_to_command = [&] {
    for (int i = 0; i < 1000; ++i)
      if (step()) return true;
    return false;
  };
  for (int i = 0; i < 1000; ++i) step();  // past the cold-bank start
  const Cycle start = now;
  for (auto _ : state) {
    if (!step_to_command()) {
      state.SkipWithError("no command issued within 1000 cycles");
      break;
    }
  }
  state.counters["cycles_per_cmd"] =
      static_cast<double>(now - start) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramPickSaturated);

void BM_WakeCalendarTakeArm(benchmark::State& state) {
  // One machine cycle per iteration on the Table III machine: the three
  // passes of Gpu::step and MemorySystem::cycle, each followed by the arms
  // its visits make. An SM takes an arrived reply (and wakes its LD/ST
  // unit), an LD/ST unit sleeps until an L1 hit returns or until woken, an
  // issue stage until its next ready warp; a partition pulls a request
  // (its L2 latency starts) or ticks its arrived probe head (a reply head
  // gets a front); a reply head sends a reply to an SM and a new request
  // reaches a partition's lane.
  const GpuConfig cfg;
  WakeCalendar cal(cfg.num_sms, cfg.num_l2_partitions);
  using W = WakeCalendar;
  u64 x = 1;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  const auto arm_if_never = [&](W::Row r, u32 id, Cycle c) {
    if (cal.at(r, id) == kNever) cal.arm(r, id, c);
  };
  // Every ledger starts awake, as SleepLedger's constructor arms it.
  for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
    cal.arm(W::kLdStRow, sm, 0);
    cal.arm(W::kIssueRow, sm, 0);
  }
  for (u32 p = 0; p < cfg.num_l2_partitions; ++p) cal.arm(W::kL2Row, p, 0);
  Cycle now = 0;
  u64 visits = 0;
  for (auto _ : state) {
    for (u64 due = cal.take(W::kSm, now); due != 0; due &= due - 1, ++visits) {
      const auto sm = static_cast<u32>(std::countr_zero(due));
      const u64 r = rnd();
      if (now >= cal.at(W::kReplyRow, sm)) {
        cal.arm(W::kReplyRow, sm, kNever);
        cal.arm(W::kLdStRow, sm, 0);
      } else if (now >= cal.at(W::kLdStRow, sm)) {
        cal.arm(W::kLdStRow, sm, r % 2 ? now + cfg.l1_hit_latency : kNever);
      }
      if (now >= cal.at(W::kIssueRow, sm))
        cal.arm(W::kIssueRow, sm,
                r % 4 == 0 ? 0 : now + 1 + r % cfg.sfu_latency);
    }
    for (u64 due = cal.take(W::kPartition, now); due != 0;
         due &= due - 1, ++visits) {
      const auto p = static_cast<u32>(std::countr_zero(due));
      if (now >= cal.at(W::kPullRow, p)) {
        cal.arm(W::kL2Row, p, now + cfg.l2_latency);
        cal.arm(W::kPullRow, p, rnd() % 2 ? now + cfg.xbar_latency : kNever);
      } else if (now >= cal.at(W::kL2Row, p)) {
        cal.arm(W::kL2Row, p, kNever);
        cal.mark(W::kReplyHead, W::bit(p));
      }
    }
    for (u64 due = cal.take(W::kReplyHead, now); due != 0;
         due &= due - 1, ++visits) {
      const u64 r = rnd();
      arm_if_never(W::kReplyRow, static_cast<u32>(r % cfg.num_sms),
                   now + cfg.xbar_latency);
      arm_if_never(W::kPullRow,
                   static_cast<u32>((r >> 8) % cfg.num_l2_partitions),
                   now + cfg.xbar_latency);
    }
    benchmark::DoNotOptimize(visits);
    ++now;
  }
  if (visits == 0) state.SkipWithError("the calendar visited nothing");
  state.counters["visits_per_cycle"] =
      static_cast<double>(visits) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WakeCalendarTakeArm);

void BM_CapsTableLookup(benchmark::State& state) {
  GpuConfig cfg;
  CapsPrefetcher pf(cfg);
  pf.on_cta_launch(0, {0, 0}, 0, 8);
  std::vector<PrefetchRequest> out;
  std::vector<Addr> lines{0x10000};
  u32 warp = 0;
  for (auto _ : state) {
    LoadIssueInfo info;
    info.pc = 0x40;
    info.cta_slot = 0;
    info.warp_slot = warp;
    info.warp_in_cta = warp;
    info.warps_in_cta = 8;
    lines[0] = 0x10000 + warp * 2048;
    info.lines = lines;
    out.clear();
    pf.on_load_issue(info, out);
    benchmark::DoNotOptimize(out);
    warp = (warp + 1) % 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CapsTableLookup);

void BM_SchedulerPick(benchmark::State& state) {
  GpuConfig cfg;
  std::vector<WarpContext> warps(cfg.max_warps_per_sm);
  for (u32 w = 0; w < 16; ++w) warps[w].status = WarpStatus::kActive;
  auto sched = std::make_unique<TwoLevelScheduler>(cfg, warps);
  sched->on_cta_launch(0, 0, 16);
  Cycle now = 0;
  for (auto _ : state) benchmark::DoNotOptimize(sched->pick(now++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPick);

/// A saturated SM as its scheduler sees it: six CTAs of eight warps, six
/// ready warps whose memory instructions the LD/ST unit refuses, and 42
/// pending warps waiting on loads. Each iteration is one SM cycle: one pick,
/// refused, so no warp state changes. The warps carry mem_wait and ready_at
/// as the SM keeps them.
void BM_SchedulerPickSaturated(benchmark::State& state, SchedulerKind kind) {
  GpuConfig cfg;
  std::vector<WarpContext> warps(cfg.max_warps_per_sm);
  for (u32 w = 0; w < cfg.max_warps_per_sm; ++w) {
    warps[w].status = WarpStatus::kActive;
    warps[w].warp_in_cta = w % 8;
    warps[w].launch_order = w;
    warps[w].mem_wait = w >= 6;
  }
  std::unique_ptr<Scheduler> sched =
      make_policies(PrefetcherKind::kNone, kind, true)
          .make_scheduler(cfg, warps, nullptr, nullptr);
  for (u32 c = 0; c < 6; ++c) sched->on_cta_launch(c, c * 8, 8);
  Cycle now = 0;
  for (auto _ : state) benchmark::DoNotOptimize(sched->pick(now++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SchedulerPickSaturated, TLV, SchedulerKind::kTwoLevel);
BENCHMARK_CAPTURE(BM_SchedulerPickSaturated, PAS, SchedulerKind::kPas);

void BM_FullGpuCycle(benchmark::State& state) {
  GpuConfig cfg;
  cfg.max_cycles = ~0ULL;
  const Kernel& k = find_workload("LPS").kernel;
  SmPolicyFactories pol =
      make_policies(PrefetcherKind::kCaps, SchedulerKind::kPas, true);
  auto gpu = std::make_unique<Gpu>(cfg, k, pol);
  for (auto _ : state) {
    if (gpu->done())  // restart; construction amortizes over ~10^5 steps
      gpu = std::make_unique<Gpu>(cfg, k, pol);
    gpu->step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullGpuCycle);

/// Times Gpu::step on `workload` under `pf` and `sched` in a steady regime:
/// each machine is warmed up for 5000 steps outside the timed region, and a
/// finished kernel restarts the same way. If `in_regime` is given and the
/// first warmed machine's SM statistics fail it, the benchmark is skipped
/// with `miss` (it no longer times the regime it names).
void time_warmed_steps(benchmark::State& state, const char* workload,
                       PrefetcherKind pf, SchedulerKind sched,
                       bool (*in_regime)(const SmStats&) = nullptr,
                       const char* miss = nullptr) {
  GpuConfig cfg;
  cfg.max_cycles = ~0ULL;
  const Kernel& k = find_workload(workload).kernel;
  const SmPolicyFactories pol = make_policies(pf, sched, true);
  auto warmed = [&] {
    auto gpu = std::make_unique<Gpu>(cfg, k, pol);
    for (int i = 0; i < 5000; ++i) gpu->step();
    return gpu;
  };
  auto gpu = warmed();
  if (in_regime != nullptr && !in_regime(gpu->collect_stats().sm))
    state.SkipWithError(miss);
  for (auto _ : state) {
    if (gpu->done()) {
      state.PauseTiming();
      gpu = warmed();
      state.ResumeTiming();
    }
    gpu->step();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FullGpuCycleSaturated(benchmark::State& state) {
  // PVR's indirect loads on BASE saturate the memory system within a few
  // thousand cycles; from then on most of a step is blocked LD/ST and L2
  // queue heads retrying, so this times that retry path.
  time_warmed_steps(state, "PVR", PrefetcherKind::kNone,
                    default_scheduler_for(PrefetcherKind::kNone));
}
BENCHMARK(BM_FullGpuCycleSaturated);

void BM_FullGpuCycleRefused(benchmark::State& state) {
  // BFS on BASE: once its 32-line indirect loads fill the LD/ST queues,
  // most SM cycles pick a warp that the full queue refuses, and most LD/ST
  // units and L2 partitions only re-count a stall. The warm-up must leave
  // at least half the SM cycles refused (BFS: about 88%; MM, which only
  // brushes a full queue, about 0.5%).
  time_warmed_steps(
      state, "BFS", PrefetcherKind::kNone,
      default_scheduler_for(PrefetcherKind::kNone),
      [](const SmStats& s) {
        return s.stall_ldst_full * 2 >= s.active_cycles;
      },
      "BFS did not reach the refused regime");
}
BENCHMARK(BM_FullGpuCycleRefused);

void BM_FullGpuCycleMemoryBound(benchmark::State& state) {
  // BFS with CAPS and PAS, a Fig. 10 configuration: in steady state almost
  // every warp waits on memory, so most SMs, partitions, channels and reply
  // heads have nothing to do in a given cycle. This times the wake
  // calendar's per-cycle cost next to BM_FullGpuCycleRefused.
  time_warmed_steps(
      state, "BFS", PrefetcherKind::kCaps, SchedulerKind::kPas,
      [](const SmStats& s) {
        return s.stall_cycles_all_mem * 2 >= s.active_cycles;
      },
      "BFS did not reach the memory-bound regime");
}
BENCHMARK(BM_FullGpuCycleMemoryBound);

void BM_FullGpuCycleIssueBound(benchmark::State& state) {
  // MM with TLV, a Fig. 10 configuration: between tile loads its warps
  // compute out of shared memory and sync at barriers, so most SM cycles
  // issue and the two-level scheduler's demotions, barrier releases and
  // promotions run every cycle. This times that regime next to
  // BM_FullGpuCycleMemoryBound.
  time_warmed_steps(
      state, "MM", PrefetcherKind::kNone, SchedulerKind::kTwoLevel,
      [](const SmStats& s) {
        return s.issued_instructions * 2 >= s.active_cycles;
      },
      "MM did not reach the issue-bound regime");
}
BENCHMARK(BM_FullGpuCycleIssueBound);

void BM_GpuConstruct(benchmark::State& state, const char* workload,
                     PrefetcherKind pf, SchedulerKind sched) {
  // The Table III machine as the harness builds it once per run, before the
  // first cycle: every SM, MSHR, cache, queue and prefetcher table.
  const GpuConfig cfg;
  const Kernel& k = find_workload(workload).kernel;
  const SmPolicyFactories pol = make_policies(pf, sched, true);
  for (auto _ : state) {
    Gpu gpu(cfg, k, pol);
    benchmark::DoNotOptimize(&gpu);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_GpuConstruct, BFS_CAPS_PAS, "BFS", PrefetcherKind::kCaps,
                  SchedulerKind::kPas)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GpuConstruct, MM_BASE, "MM", PrefetcherKind::kNone,
                  default_scheduler_for(PrefetcherKind::kNone))
    ->Unit(benchmark::kMicrosecond);

void BM_EndToEndSmallKernel(benchmark::State& state) {
  GpuConfig cfg;
  cfg.num_sms = 2;
  KernelBuilder b("bench", {8, 1, 1}, {128, 1, 1});
  b.alu(4);
  b.load(linear_pattern(0x1000'0000, 4, 128));
  b.alu(4, true);
  const Kernel k = b.build();
  for (auto _ : state) {
    SmPolicyFactories pol =
        make_policies(PrefetcherKind::kCaps, SchedulerKind::kPas, true);
    Gpu gpu(cfg, k, pol);
    benchmark::DoNotOptimize(gpu.run().cycles);
  }
}
BENCHMARK(BM_EndToEndSmallKernel)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace caps

BENCHMARK_MAIN();
