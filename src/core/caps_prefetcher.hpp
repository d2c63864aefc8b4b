// CAP: the CTA-Aware Prefetcher (Section V-B/V-C).
//
// Per SM: one DIST table (load PC -> inter-warp stride + misprediction
// counter) shared across CTAs, plus one PerCTA table per CTA slot (load PC
// -> leading warp + base line addresses). Prefetch address for warp w of a
// CTA whose leading warp is w0: base + (w - w0) * stride, per coalesced
// base line.
//
// Generation follows the two cases of Fig. 9:
//  * Case 1 — the stride is discovered (a trailing warp of the leading CTA
//    executes the load) after several CTAs already registered their bases:
//    prefetches fan out to every registered CTA at once.
//  * Case 2 — a leading warp registers its CTA's base after the stride is
//    already known: prefetches fan out to all trailing warps of that CTA.
//
// Quality control: indirect (register-trace oracle) and badly-coalesced
// loads are excluded; every demand load verifies the address CAPS would
// have predicted and bumps the DIST misprediction counter on mismatch;
// past the threshold the PC is throttled. Non-uniform per-line strides
// invalidate the PerCTA entry ("not a striding load").
#pragma once

#include <vector>

#include "common/config.hpp"
#include "core/dist_table.hpp"
#include "core/percta_table.hpp"
#include "prefetch/prefetcher.hpp"

namespace caps {

class CapsPrefetcher final : public Prefetcher {
 public:
  explicit CapsPrefetcher(const GpuConfig& cfg);

  void on_load_issue(const LoadIssueInfo& info,
                     std::vector<PrefetchRequest>& out) override;
  void on_cta_launch(u32 cta_slot, const Dim3& cta_id, u32 first_warp_slot,
                     u32 num_warps) override;
  void on_cta_complete(u32 cta_slot) override;
  const char* name() const override { return "CAPS"; }

  // Introspection for tests.
  DistTable& dist() { return dist_; }
  PerCtaTable& percta(u32 cta_slot) { return percta_[cta_slot]; }

  // Read-only introspection (oracle cross-checker): observing the tables
  // through these can never perturb LRU or replacement state.
  const DistTable& dist() const { return dist_; }
  const PerCtaTable& percta(u32 cta_slot) const { return percta_[cta_slot]; }

 private:
  struct CtaInfo {
    bool active = false;
    u32 first_warp_slot = 0;
    u32 num_warps = 0;
  };

  /// Generate prefetches for every not-yet-issued, not-yet-prefetched
  /// trailing warp recorded in `entry`, the entry for load `pc` of CTA slot
  /// `cta_slot`.
  void generate_for_cta(u32 cta_slot, Addr pc, PerCtaEntry& entry, i64 stride,
                        std::vector<PrefetchRequest>& out);

  DistTable dist_;
  std::vector<PerCtaTable> percta_;  ///< per CTA slot
  std::vector<CtaInfo> ctas_;
};

}  // namespace caps
