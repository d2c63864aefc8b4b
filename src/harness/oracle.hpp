// Static-vs-dynamic oracle (DESIGN.md §11-§12).
//
// Differential testing of the runtime CAP prefetcher and the PAS schedulers
// against the static kernel-IR analyzer and schedule advisor. cross_check()
// analyzes a workload once, runs it once under CAPS+PAS and once under
// CAPS+PAS-GTO, and asserts that what the machine *did* matches what the
// static algebra *proves*.
//
// Prefetch section (the CAPS+PAS run):
//   * every valid DIST entry maps to a statically prefetchable load PC and
//     carries exactly the static inter-warp stride Δ,
//   * every statically prefetchable PC was learned by some SM (when the
//     DIST capacity admits them all),
//   * the excluded_indirect / excluded_uncoalesced counters equal the
//     statically predicted dynamic issue counts,
//   * the first warp of each CTA to issue an affine load (the leading warp
//     CAP keys its PerCTA entry on) produced exactly the base lines
//     Θ(c) predicts.
// Schedule section (both runs): the leading-marker protocol, wave
// placement, base-address discovery order, eager wake-ups and (PAS only)
// per-PC timeliness against advise_schedule().
//
// Any divergence is reported as a structured diagnostic: it means either a
// simulator regression or an analyzer bug, and both gate the PR.
#pragma once

#include <string>
#include <vector>

#include "analysis/kernel_analyzer.hpp"
#include "analysis/schedule_advisor.hpp"
#include "harness/experiment.hpp"
#include "workloads/workload.hpp"

namespace caps {

/// One static-vs-dynamic disagreement.
struct OracleDivergence {
  std::string workload;
  Addr pc = 0;        ///< load PC involved (0 for kernel-wide checks)
  std::string kind;   ///< stable machine tag, e.g. "stride-mismatch"
  std::string detail; ///< human-readable expected-vs-actual description
};

struct OracleOptions {
  GpuConfig base{};  ///< machine config (the checker runs CAPS under PAS,
                     ///  then under PAS-GTO)
  /// Negative-test fixture: skew the static prefetch predictions (stride,
  /// exclusion counts) after analysis so the prefetch section MUST report
  /// divergences. Verifies the checker can actually fail.
  bool inject_divergence = false;
  /// Negative-test fixture: skew the predicted leading warp and reverse the
  /// predicted discovery orders so the schedule section MUST report
  /// divergences.
  bool inject_schedule_divergence = false;
};

/// The outcome of one half of the cross-check.
struct OracleSection {
  RunStatus status = RunStatus::kOk;  ///< how the simulations it read ended
  std::string error;                  ///< non-empty when status != kOk
  std::vector<OracleDivergence> divergences;
  /// Non-gating observations (wrap-hazard loads whose strict stride check is
  /// relaxed by design, non-decisive timeliness shares, PCs with too few
  /// prefetch samples to judge, injection markers).
  std::vector<std::string> notes;

  bool ok() const { return status == RunStatus::kOk && divergences.empty(); }
};

/// Cross-check outcome for one workload.
struct OracleResult {
  std::string workload;
  analysis::KernelAnalysis analysis;  ///< the static prediction used
  analysis::ScheduleAdvice advice;    ///< the static schedule used
  OracleSection prefetch;  ///< DIST tables, exclusion counters, bases
  OracleSection schedule;  ///< markers, discovery order, wake-ups, timeliness

  bool ok() const { return prefetch.ok() && schedule.ok(); }
};

/// Run `w` under CAPS+PAS and CAPS+PAS-GTO and cross-check both runs against
/// the static analysis and schedule advice. A failed PAS run fails both
/// sections, a failed PAS-GTO run only the schedule section. Never throws
/// for simulation failures (the section status records them).
OracleResult cross_check(const Workload& w, const OracleOptions& opt = {});

}  // namespace caps
