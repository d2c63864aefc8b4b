// Static kernel-IR load classifier (DESIGN.md §11).
//
// The paper's core observation (Section IV) is that GPU load addresses
// decompose as  addr = Theta(ctaid) + threadIdx*C3  — and in our kernel IR
// that decomposition is *statically* visible: every AddressPattern carries
// the affine coefficients and the `indirect` flag that the runtime CAP
// prefetcher can only discover dynamically through its DIST/PerCTA tables.
//
// analyze_kernel() walks a Kernel's instruction stream and derives, from the
// AddressPattern algebra alone, the ground truth CAP converges to:
//   * a classification for every global-load PC (the lattice below),
//   * the exact inter-warp line stride Δ the DIST table should learn,
//   * the per-CTA base function Θ(c) = base + c_cta_x·cx + c_cta_y·cy,
//   * the coalesced-line count per warp,
//   * predicted DIST/PerCTA occupancy and exclusion counters.
//
// The result is an oracle for differentially testing the runtime prefetcher
// (src/harness/oracle.hpp): static-vs-dynamic divergence means either a
// model bug or an analyzer bug, and both are worth a diagnostic.
//
// IMPORTANT: this module deliberately re-implements the address algebra
// (affine evaluation, wrap masking, warp coalescing) instead of calling
// AddressPattern::evaluate()/Coalescer::coalesce(). Sharing that code would
// turn the differential check into a tautology.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "isa/kernel.hpp"

namespace caps::analysis {

/// Classification lattice for a global load PC, ordered by how CAP treats
/// it. The first matching class wins (mirrors the runtime exclusion order
/// in CapsPrefetcher::on_load_issue).
enum class LoadClass : u8 {
  /// Data-dependent address: the register-trace oracle excludes it
  /// (excluded_indirect) before any table is touched.
  kIndirect,
  /// Coalesces to more than CapsConfig::kMaxCoalescedLines lines at warp
  /// granularity: excluded_uncoalesced.
  kUncoalesced,
  /// Affine, but consecutive-warp line deltas are not one uniform value, so
  /// the PerCTA entry is invalidated ("not a striding load", Section V-B).
  kNonStrided,
  /// Affine with identical lines for every warp (Δ = 0): CAP learns a zero
  /// stride; trailing-warp prefetches degenerate to duplicates the LD/ST
  /// unit deduplicates.
  kZeroStride,
  /// The paper's target: CTA-affine with one exact inter-warp stride Δ.
  kCtaAffine,
};

const char* to_string(LoadClass c);

/// Static analysis of one global-load PC.
struct LoadAnalysis {
  u32 instr_index = 0;
  Addr pc = 0;
  AddressPattern pattern{};  ///< the IR pattern this analysis derives from
  LoadClass cls = LoadClass::kCtaAffine;

  // --- loop context -------------------------------------------------------
  bool in_loop = false;       ///< lexically inside >=1 counted loop
  bool loop_variant = false;  ///< in_loop and c_iter != 0: address moves
                              ///  with the innermost iteration counter
  u32 innermost_trip = 1;     ///< trip count of the innermost enclosing loop
  u64 trip_product = 1;       ///< product of all enclosing trip counts
  u64 dynamic_issues = 0;     ///< ctas * warps_per_cta * trip_product

  // --- wrap (bounded-footprint) behaviour ---------------------------------
  bool wrap_engaged = false;  ///< wrap_bytes != 0 and some offset actually
                              ///  leaves [0, wrap_bytes): far CTAs alias
  bool wrap_hazard = false;   ///< a wrap seam falls *inside* some CTA's warp
                              ///  progression: inter-warp deltas differ
                              ///  there and CAP will mispredict

  // --- shape --------------------------------------------------------------
  bool partial_tail_warp = false;  ///< last warp has < kWarpSize active lanes
  bool uniform_line_count = true;  ///< every (cta, iter, warp) issue
                                   ///  coalesces to the same number of lines
  u32 lines_per_warp = 0;   ///< max coalesced lines per warp-level issue
  /// Dynamic issues whose line count exceeds kMaxCoalescedLines (each one
  /// bumps the runtime excluded_uncoalesced counter).
  u64 predicted_uncoalesced_issues = 0;
  i64 warp_stride_bytes = 0;  ///< lane-0 byte delta between adjacent warps
  /// Δ: the uniform per-warp line-address delta the DIST table learns.
  /// Meaningful for kCtaAffine/kZeroStride only.
  i64 line_stride = 0;

  // --- Theta(c): per-CTA base function ------------------------------------
  /// Lane-0 address of warp 0 at iteration 0 is
  ///   Theta(c) = theta_base + theta_cta_x*c.x + theta_cta_y*c.y
  /// (before wrap masking).
  Addr theta_base = 0;
  i64 theta_cta_x = 0;
  i64 theta_cta_y = 0;

  /// Would CAP target this PC (admit it to DIST and generate prefetches)?
  bool prefetchable() const {
    return cls == LoadClass::kCtaAffine || cls == LoadClass::kZeroStride;
  }
  /// Is the PC excluded before any table access?
  bool excluded() const {
    return cls == LoadClass::kIndirect || cls == LoadClass::kUncoalesced;
  }
};

/// Whole-kernel analysis: every global load plus predicted CAP table state.
struct KernelAnalysis {
  std::string kernel;
  Dim3 grid{};
  Dim3 block{};
  u32 warps_per_cta = 0;
  u32 line_size = 0;
  std::vector<LoadAnalysis> loads;

  // Predicted CAP table state / quality counters for a complete run.
  u32 predicted_dist_valid = 0;    ///< min(#prefetchable PCs, dist_entries)
  u32 predicted_percta_peak = 0;   ///< min(#non-excluded PCs, percta_entries)
  u64 predicted_excluded_indirect = 0;    ///< dynamic issue count
  u64 predicted_excluded_uncoalesced = 0; ///< dynamic issue count

  const LoadAnalysis* find(Addr pc) const;
  u32 num_prefetchable() const;
};

/// Analyze every global load of `k` under the CAP parameters in `cfg`
/// (line size, table capacities).
KernelAnalysis analyze_kernel(const Kernel& k, const GpuConfig& cfg = {});

// --- independent address algebra (exposed for the oracle + tests) ---------

/// The analyzer's own evaluation of the documented affine algebra:
///   base + c_tid_x·tid.x + c_tid_y·tid.y + c_cta_x·cta.x + c_cta_y·cta.y
///        + c_iter·iter,  offset wrapped into [0, wrap_bytes) when set.
/// Valid for affine (non-indirect) patterns only.
Addr affine_lane_address(const AddressPattern& p, const Dim3& tid,
                         const Dim3& cta, u32 iter);

/// Predicted coalesced line addresses (ascending, deduplicated) for one
/// warp-level issue — the analyzer's independent model of the coalescer.
std::vector<Addr> predicted_warp_lines(const AddressPattern& p,
                                       const Dim3& block, const Dim3& cta,
                                       u32 warp_in_cta, u32 iter,
                                       u32 line_size);

}  // namespace caps::analysis
