// LAP: locality-aware prefetching (Jog et al. [17]). L1 lines are grouped
// into macro blocks of `macro_block_lines` consecutive lines; when at least
// `lap_miss_threshold` distinct lines of a macro block miss, the remaining
// lines of the block are prefetched. The ORCH configuration pairs this
// engine with the orchestrated scheduling-group scheduler.
#pragma once

#include "common/config.hpp"
#include "prefetch/lru_table.hpp"
#include "prefetch/prefetcher.hpp"

namespace caps {

class LocalityAwarePrefetcher final : public Prefetcher {
 public:
  explicit LocalityAwarePrefetcher(const GpuConfig& cfg)
      : cfg_(cfg), blocks_(kMaxTrackedBlocks) {}

  void on_load_issue(const LoadIssueInfo&, std::vector<PrefetchRequest>&) override {}
  void on_demand_miss(Addr line, Addr pc, i32 warp_slot,
                      std::vector<PrefetchRequest>& out) override;
  const char* name() const override { return "LAP"; }

 private:
  static constexpr u32 kMaxTrackedBlocks = 64;

  struct BlockState {
    u64 miss_mask = 0;  // capacity bounds macro_block_lines (config::validate)

    void clear() { miss_mask = 0; }
  };

  const GpuConfig& cfg_;
  LruTable<Addr, BlockState> blocks_;  ///< key: macro-block base address
};

}  // namespace caps
