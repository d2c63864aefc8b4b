// Machine configuration. Defaults reproduce Table III of the paper
// (Fermi GTX480-like machine as modeled by GPGPU-Sim v3.2.2).
#pragma once

#include <string>

#include "common/types.hpp"

namespace caps {

/// Set-associative cache geometry.
struct CacheConfig {
  u32 size_bytes = 16 * 1024;
  u32 line_size = 128;
  u32 assoc = 4;
  u32 mshr_entries = 32;
  /// Maximum demand requests merged into one in-flight MSHR entry.
  u32 mshr_max_merged = 8;

  u32 num_sets() const { return size_bytes / (line_size * assoc); }
  u32 num_lines() const { return size_bytes / line_size; }
  void validate() const;
};

/// GDDR5 timing, expressed in DRAM command-clock cycles (924 MHz in
/// Table III); DramChannel scales them into core cycles.
struct DramTiming {
  u32 tCL = 12;
  u32 tRP = 12;
  u32 tRC = 40;
  u32 tRCD = 12;
  u32 tRRD = 6;
  u32 tWR = 12;
  /// Data-bus cycles to stream one 128B line (x4 interface, DDR).
  u32 burst = 4;
};

/// Warp-scheduler policies available in the simulator.
enum class SchedulerKind {
  kLrr,       ///< loose round-robin
  kGto,       ///< greedy-then-oldest
  kTwoLevel,  ///< two-level (pending + ready queue) [1,2]
  kPas,       ///< prefetch-aware two-level (the paper's PAS)
  kOrch,      ///< two-level with orchestrated scheduling groups [17]
};

const char* to_string(SchedulerKind k);

/// Prefetcher selection (Fig. 10 legend).
enum class PrefetcherKind {
  kNone,
  kIntra,  ///< intra-warp stride
  kInter,  ///< inter-warp stride
  kMta,    ///< many-thread aware [9]
  kNlp,    ///< next-line
  kLap,    ///< locality-aware macro-block [17]
  kOrch,   ///< LAP + orchestrated scheduling [17]
  kCaps,   ///< the paper's CTA-aware prefetcher
};

const char* to_string(PrefetcherKind k);

/// Tunables of the CAPS engine (Section V defaults).
struct CapsConfig {
  u32 percta_entries = 4;     ///< entries per PerCTA table
  u32 dist_entries = 4;       ///< entries in the shared DIST table
  u32 mispredict_threshold = 128;
  bool eager_wakeup = true;  ///< promote bound warp when prefetch fills

  /// Base lines a PerCTA entry holds (Table I); loads generating more lines
  /// are skipped.
  static constexpr u32 kMaxCoalescedLines = 4;
};

/// Tunables shared by the baseline prefetchers.
struct BaselinePrefetchConfig {
  u32 degree = 2;            ///< prefetches issued per trigger (INTRA/INTER/MTA)
  u32 stride_table_entries = 16;
  u32 macro_block_lines = 4;  ///< LAP macro-block size
  u32 lap_miss_threshold = 2; ///< misses within macro block to trigger
};

/// Full machine configuration (Table III defaults).
struct GpuConfig {
  // Core organization.
  u32 num_sms = 15;
  u32 core_clock_mhz = 1400;
  u32 max_warps_per_sm = 48;
  u32 max_ctas_per_sm = 8;
  u32 issue_width = 2;        ///< warps issued per SM cycle
  u32 ready_queue_size = 8;   ///< two-level scheduler ready-warp count

  // Latencies (core cycles).
  u32 alu_latency = 4;
  u32 sfu_latency = 16;
  u32 l1_hit_latency = 28;
  u32 l2_latency = 64;
  u32 xbar_latency = 16;

  // LD/ST unit.
  u32 ldst_queue_size = 64;   ///< coalesced line requests buffered per SM
                              ///  (>= 32 so a fully diverged warp can issue)

  // Memory hierarchy.
  /// Address-interleave granularity across L2 partitions. Coarser than a
  /// line so streams keep DRAM row-buffer locality (GPUs use 256B-2KB).
  u32 partition_chunk_bytes = 1024;
  CacheConfig l1d{.size_bytes = 16 * 1024,
                  .line_size = 128,
                  .assoc = 4,
                  .mshr_entries = 32,
                  .mshr_max_merged = 8};
  u32 num_l2_partitions = 12;
  CacheConfig l2{.size_bytes = 64 * 1024,
                 .line_size = 128,
                 .assoc = 8,
                 .mshr_entries = 32,
                 .mshr_max_merged = 16};
  u32 l2_queue_size = 16;     ///< probe-queue entries per L2 partition

  // DRAM.
  u32 num_dram_channels = 6;
  u32 dram_clock_mhz = 924;
  u32 dram_queue_size = 16;   ///< FR-FCFS scheduler queue entries, at most 64
  u32 dram_banks = 16;        ///< power of two, at most 64
  u32 dram_row_bytes = 2048;
  DramTiming dram_timing{};

  // Policies under test.
  SchedulerKind scheduler = SchedulerKind::kTwoLevel;
  PrefetcherKind prefetcher = PrefetcherKind::kNone;
  CapsConfig caps{};
  BaselinePrefetchConfig baseline_pf{};

  // Simulation limits.
  u64 max_cycles = 50'000'000;
  /// Forward-progress watchdog: abort with a SimError(kDeadlock) snapshot
  /// when no instruction retires, no line fills, and no request enters the
  /// memory system for this many cycles while work is still resident. The
  /// longest legitimate quiet gap (a lone warp waiting on a congested DRAM
  /// round trip) is a few thousand cycles, so 100k trips only on genuine
  /// livelock/deadlock. 0 disables.
  u64 watchdog_cycles = 100'000;

  /// Core cycles per DRAM command cycle (>=1).
  double dram_clock_ratio() const {
    return static_cast<double>(core_clock_mhz) / dram_clock_mhz;
  }

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

}  // namespace caps
