// Hardware cost model for the CAPS tables (Section V-D, Tables I & II) and
// the energy constants used by the Fig. 15 energy account.
#pragma once

#include "common/config.hpp"
#include "common/types.hpp"

namespace caps {

/// Storage layout of one PerCTA entry: PC (4B) + leading warp id (1B) +
/// 4 x 4B base address vector = 21 bytes (Table I).
struct PerCtaEntryLayout {
  u32 pc_bytes = 4;
  u32 leading_warp_bytes = 1;
  u32 base_vector_bytes = CapsConfig::kMaxCoalescedLines * 4;
  u32 total() const { return pc_bytes + leading_warp_bytes + base_vector_bytes; }
};

/// Storage layout of one DIST entry: PC (4B) + stride (4B) + misprediction
/// counter (1B) = 9 bytes (Table I).
struct DistEntryLayout {
  u32 pc_bytes = 4;
  u32 stride_bytes = 4;
  u32 counter_bytes = 1;
  u32 total() const { return pc_bytes + stride_bytes + counter_bytes; }
};

/// Total per-SM storage (Table II): DIST entries + PerCTA entries for every
/// concurrent CTA slot. With the paper defaults (4/4 entries, 8 CTA slots):
/// 36 + 672 = 708 bytes.
struct CapsHardwareCost {
  u32 dist_bytes = 0;
  u32 percta_bytes = 0;
  u32 total_bytes = 0;

  // Published synthesis results (45nm FreePDK + CACTI, Section V-D); used
  // verbatim by the energy model.
  double area_mm2 = 0.018;
  double sm_area_mm2 = 22.0;      ///< GF100 die-photo estimate
  double energy_per_access_pj = 15.07;
  double static_power_uw = 550.0;

  double area_fraction_of_sm() const { return area_mm2 / sm_area_mm2; }
};

CapsHardwareCost compute_caps_hardware_cost(const GpuConfig& cfg);

}  // namespace caps
