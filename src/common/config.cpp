#include "common/config.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace caps {
namespace {

/// The message is built only when the check fails: every cache of every
/// machine build re-validates its config.
void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(std::string("GpuConfig: ") + what);
}

}  // namespace

void CacheConfig::validate() const {
  require(std::has_single_bit(line_size), "cache line size must be a power of two");
  require(assoc > 0, "associativity must be positive");
  require(size_bytes % (line_size * assoc) == 0,
          "cache size must be a multiple of line_size*assoc");
  require(num_sets() > 0, "cache must have at least one set");
  require(std::has_single_bit(num_sets()), "number of sets must be a power of two");
  require(mshr_entries > 0, "MSHR must have at least one entry");
  require(mshr_max_merged > 0, "MSHR merge capacity must be positive");
  require(mshr_max_merged <= mshr_entries,
          "MSHR merge capacity cannot exceed the entry count");
}

const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kLrr: return "LRR";
    case SchedulerKind::kGto: return "GTO";
    case SchedulerKind::kTwoLevel: return "TLV";
    case SchedulerKind::kPas: return "PAS";
    case SchedulerKind::kOrch: return "ORCH-SCHED";
  }
  return "?";
}

const char* to_string(PrefetcherKind k) {
  switch (k) {
    case PrefetcherKind::kNone: return "BASE";
    case PrefetcherKind::kIntra: return "INTRA";
    case PrefetcherKind::kInter: return "INTER";
    case PrefetcherKind::kMta: return "MTA";
    case PrefetcherKind::kNlp: return "NLP";
    case PrefetcherKind::kLap: return "LAP";
    case PrefetcherKind::kOrch: return "ORCH";
    case PrefetcherKind::kCaps: return "CAPS";
  }
  return "?";
}

void GpuConfig::validate() const {
  require(num_sms > 0, "need at least one SM");
  // The wake calendar gives each SM, partition and channel one mask bit.
  require(num_sms <= 64, "SMs exceed the 64-bit wake-calendar mask");
  require(max_warps_per_sm > 0 && max_warps_per_sm <= 64, "warps/SM out of range");
  require(max_ctas_per_sm > 0 && max_ctas_per_sm <= 32, "CTAs/SM out of range");
  require(issue_width > 0, "issue width must be positive");
  require(ready_queue_size > 0, "ready queue must hold at least one warp");
  require(ldst_queue_size > 0, "LD/ST queue must have capacity");
  l1d.validate();
  l2.validate();
  require(l1d.line_size == l2.line_size, "L1/L2 line sizes must match");
  require(num_l2_partitions > 0, "need at least one L2 partition");
  require(num_l2_partitions <= 64,
          "L2 partitions exceed the 64-bit wake-calendar mask");
  require(l2_queue_size > 0, "L2 probe queue must have capacity");
  require(partition_chunk_bytes >= l1d.line_size &&
              partition_chunk_bytes % l1d.line_size == 0,
          "partition chunk must be a multiple of the line size");
  require(num_dram_channels > 0, "need at least one DRAM channel");
  // So the channels fit the wake-calendar mask too.
  require(num_l2_partitions % num_dram_channels == 0,
          "L2 partitions must divide evenly across DRAM channels");
  require(dram_queue_size > 0, "DRAM scheduler queue must have capacity");
  require(dram_queue_size <= 64,
          "DRAM queue exceeds the 64-bit slot-mask capacity");
  require(std::has_single_bit(dram_banks), "DRAM banks must be a power of two");
  require(dram_banks <= 64, "DRAM banks exceed the 64-bit bank-mask capacity");
  require(dram_row_bytes >= l2.line_size, "DRAM row must hold at least a line");
  require(core_clock_mhz >= dram_clock_mhz, "core clock must be >= DRAM clock");
  require(caps.percta_entries > 0, "PerCTA table needs entries");
  require(caps.dist_entries > 0, "DIST table needs entries");
  require(baseline_pf.stride_table_entries > 0, "stride table needs entries");
  require(baseline_pf.degree >= 1, "prefetch degree must be positive");
  require(baseline_pf.macro_block_lines >= 2, "macro block must span >=2 lines");
  require(baseline_pf.macro_block_lines <= 64,
          "macro block exceeds the 64-line LAP miss-mask capacity");
  require(max_cycles > 0, "max_cycles must be positive");
}

}  // namespace caps
