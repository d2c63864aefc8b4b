// The stride prefetchers of Section III. Two rules, each defined once:
//
//  - Intra-warp (III-A): each (PC, warp) pair tracks the stride between
//    successive executions of the same load by the same warp (i.e. loop
//    iterations) and prefetches that warp's next `degree` iterations once
//    the stride is confirmed twice. Only loads executed inside loops ever
//    retrain, so loop-free kernels get no intra-warp prefetches — the
//    limitation Fig. 4 documents.
//  - Inter-warp (III-B): each load PC tracks the last (warp slot, address)
//    pair; the stride between warp slots predicts the addresses of the next
//    `degree` warp slots. Deliberately CTA-agnostic — warp slots of
//    different CTAs are adjacent, so predictions across CTA boundaries use
//    the wrong base address. That is the published failure mode this
//    reproduction must exhibit (Figs. 1, 10, 12).
//
// INTRA and INTER apply one rule each. MTA (many-thread aware prefetching,
// Lee et al. [9], hardware variant) applies the intra-warp rule and falls
// back to the inter-warp rule for loads it is not confident on, so it
// inherits INTER's CTA-boundary blindness.
#pragma once

#include "common/config.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/stride_table.hpp"

namespace caps {

class StridePrefetcher : public Prefetcher {
 public:
  explicit StridePrefetcher(const GpuConfig& cfg)
      : cfg_(cfg),
        intra_(cfg.baseline_pf.stride_table_entries * 8),
        inter_(cfg.baseline_pf.stride_table_entries) {}

 protected:
  /// The intra-warp rule. Returns whether the (PC, warp) entry was
  /// confident, i.e. whether it prefetched.
  bool intra_warp(const LoadIssueInfo& info, std::vector<PrefetchRequest>& out);
  /// The inter-warp rule.
  void inter_warp(const LoadIssueInfo& info, std::vector<PrefetchRequest>& out);

 private:
  const GpuConfig& cfg_;
  StrideTable intra_;  ///< key: (pc, warp slot)
  StrideTable inter_;  ///< key: pc
};

class IntraWarpPrefetcher final : public StridePrefetcher {
 public:
  using StridePrefetcher::StridePrefetcher;
  void on_load_issue(const LoadIssueInfo& info,
                     std::vector<PrefetchRequest>& out) override {
    intra_warp(info, out);
  }
  const char* name() const override { return "INTRA"; }
};

class InterWarpPrefetcher final : public StridePrefetcher {
 public:
  using StridePrefetcher::StridePrefetcher;
  void on_load_issue(const LoadIssueInfo& info,
                     std::vector<PrefetchRequest>& out) override {
    inter_warp(info, out);
  }
  const char* name() const override { return "INTER"; }
};

class MtaPrefetcher final : public StridePrefetcher {
 public:
  using StridePrefetcher::StridePrefetcher;
  void on_load_issue(const LoadIssueInfo& info,
                     std::vector<PrefetchRequest>& out) override {
    // Iterative loads belong to the intra-warp rule; the rest fall back.
    if (!intra_warp(info, out)) inter_warp(info, out);
  }
  const char* name() const override { return "MTA"; }
};

}  // namespace caps
