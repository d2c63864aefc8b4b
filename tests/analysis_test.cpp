// Unit tests for the static kernel-IR load classifier, the schedule advisor
// (src/analysis/) and the oracle cross-checker (src/harness/oracle.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/kernel_analyzer.hpp"
#include "analysis/report.hpp"
#include "analysis/schedule_advisor.hpp"
#include "harness/oracle.hpp"
#include "isa/kernel.hpp"
#include "workloads/workload.hpp"

namespace caps {
namespace {

using analysis::LoadClass;

Kernel one_load_kernel(const AddressPattern& p, Dim3 grid = {4, 1},
                       Dim3 block = {64, 1}) {
  KernelBuilder b("t", grid, block);
  b.load(p);
  return b.build();
}

TEST(KernelAnalyzerTest, ClassifiesLinearLoadAsCtaAffine) {
  // array[flat_tid], 4-byte elements, 64-thread block: warp covers 128
  // bytes = exactly one line, adjacent warps one line apart.
  const Kernel k = one_load_kernel(linear_pattern(0x1000'0000, 4, 64));
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 1u);
  const analysis::LoadAnalysis& la = ka.loads[0];
  EXPECT_EQ(la.cls, LoadClass::kCtaAffine);
  EXPECT_TRUE(la.prefetchable());
  EXPECT_EQ(la.line_stride, 128);
  EXPECT_EQ(la.warp_stride_bytes, 128);
  EXPECT_EQ(la.lines_per_warp, 1u);
  EXPECT_TRUE(la.uniform_line_count);
  EXPECT_EQ(la.theta_base, 0x1000'0000u);
  EXPECT_EQ(la.theta_cta_x, 4 * 64);
  EXPECT_EQ(la.dynamic_issues, 4u * 2u);  // 4 CTAs x 2 warps
  EXPECT_EQ(ka.predicted_dist_valid, 1u);
  EXPECT_EQ(ka.predicted_excluded_indirect, 0u);
  EXPECT_EQ(ka.predicted_excluded_uncoalesced, 0u);
}

TEST(KernelAnalyzerTest, ClassifiesIndirectAndPredictsExclusions) {
  const Kernel k = one_load_kernel(indirect_pattern(0x2000'0000, 1 << 20, 7));
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 1u);
  EXPECT_EQ(ka.loads[0].cls, LoadClass::kIndirect);
  EXPECT_TRUE(ka.loads[0].excluded());
  // Every dynamic warp-level issue bumps excluded_indirect: 4 CTAs x 2 warps.
  EXPECT_EQ(ka.predicted_excluded_indirect, 8u);
  EXPECT_EQ(ka.predicted_dist_valid, 0u);
}

TEST(KernelAnalyzerTest, ClassifiesUncoalescedByLineCount) {
  // One line per lane: 32 lines per warp >> max_coalesced_lines (4).
  AddressPattern p;
  p.base = 0x1000'0000;
  p.c_tid_x = 256;  // two lines apart per lane
  const Kernel k = one_load_kernel(p);
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 1u);
  EXPECT_EQ(ka.loads[0].cls, LoadClass::kUncoalesced);
  EXPECT_EQ(ka.loads[0].lines_per_warp, 32u);
  // Every issue exceeds the limit, so every issue is predicted excluded.
  EXPECT_EQ(ka.predicted_excluded_uncoalesced, ka.loads[0].dynamic_issues);
}

TEST(KernelAnalyzerTest, ClassifiesBroadcastAsZeroStride) {
  // Every thread reads the same word: Δ = 0, still a (degenerate) target.
  AddressPattern p;
  p.base = 0x3000'0000;
  const Kernel k = one_load_kernel(p);
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 1u);
  EXPECT_EQ(ka.loads[0].cls, LoadClass::kZeroStride);
  EXPECT_TRUE(ka.loads[0].prefetchable());
  EXPECT_EQ(ka.loads[0].line_stride, 0);
}

TEST(KernelAnalyzerTest, SingleWarpCtaHasNoComparablePair) {
  // One warp per CTA: CAP can never observe a (leading, trailing) pair, so
  // the analyzer conservatively reports non-strided.
  const Kernel k =
      one_load_kernel(linear_pattern(0x1000'0000, 4, 32), {4, 1}, {32, 1});
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);
  ASSERT_EQ(ka.loads.size(), 1u);
  EXPECT_EQ(ka.loads[0].cls, LoadClass::kNonStrided);
  EXPECT_FALSE(ka.loads[0].prefetchable());
}

TEST(KernelAnalyzerTest, LoopContextAndIterationVariance) {
  AddressPattern fixed = linear_pattern(0x1000'0000, 4, 64);
  AddressPattern moving = linear_pattern(0x2000'0000, 4, 64);
  moving.c_iter = 4 * 64;  // advances one warp-footprint per iteration

  KernelBuilder b("t", {4, 1}, {64, 1});
  b.loop(5);
  b.load(fixed);
  b.load(moving);
  b.end_loop();
  const Kernel k = b.build();
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 2u);
  for (const analysis::LoadAnalysis& la : ka.loads) {
    EXPECT_TRUE(la.in_loop);
    EXPECT_EQ(la.innermost_trip, 5u);
    EXPECT_EQ(la.trip_product, 5u);
    EXPECT_EQ(la.dynamic_issues, 4u * 2u * 5u);
    EXPECT_EQ(la.cls, LoadClass::kCtaAffine);
  }
  EXPECT_FALSE(ka.loads[0].loop_variant);
  EXPECT_TRUE(ka.loads[1].loop_variant);
}

TEST(KernelAnalyzerTest, NestedLoopsMultiplyDynamicIssues) {
  KernelBuilder b("t", {2, 1}, {64, 1});
  b.loop(2);
  b.loop(3);
  b.load(linear_pattern(0x1000'0000, 4, 64));
  b.end_loop();
  b.end_loop();
  const Kernel k = b.build();
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 1u);
  EXPECT_EQ(ka.loads[0].innermost_trip, 3u);
  EXPECT_EQ(ka.loads[0].trip_product, 6u);
  EXPECT_EQ(ka.loads[0].dynamic_issues, 2u * 2u * 6u);
}

TEST(KernelAnalyzerTest, AlignedWrapAliasesWithoutHazard) {
  // CTA stride == wrap window: far CTAs replay identical addresses, and no
  // wrap seam ever falls inside one CTA's offsets.
  AddressPattern p = linear_pattern(0x4000'0000, 4, 64);
  p.c_cta_x = 1 << 12;
  p.wrap_bytes = 1 << 12;
  const Kernel k = one_load_kernel(p, {8, 1}, {64, 1});
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 1u);
  EXPECT_TRUE(ka.loads[0].wrap_engaged);
  EXPECT_FALSE(ka.loads[0].wrap_hazard);
  EXPECT_EQ(ka.loads[0].cls, LoadClass::kCtaAffine);
  EXPECT_EQ(ka.loads[0].line_stride, 128);
}

TEST(KernelAnalyzerTest, MisalignedWrapSeamIsAHazard) {
  // CTA stride not a multiple of the window: some CTA's offsets straddle a
  // seam, so an adjacent-warp delta wraps and CAP would mispredict there.
  AddressPattern p = linear_pattern(0x4000'0000, 4, 64);
  p.c_cta_x = 4000;
  p.wrap_bytes = 1 << 12;
  const Kernel k = one_load_kernel(p, {8, 1}, {64, 1});
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);

  ASSERT_EQ(ka.loads.size(), 1u);
  EXPECT_TRUE(ka.loads[0].wrap_engaged);
  EXPECT_TRUE(ka.loads[0].wrap_hazard);
}

TEST(KernelAnalyzerTest, IndependentAlgebraMatchesRuntimeEvaluate) {
  // The analyzer's own affine algebra must agree with the runtime's
  // AddressPattern::evaluate() on every lane — that equivalence is what
  // makes the static/dynamic cross-check meaningful.
  AddressPattern p;
  p.base = 0x1000;
  p.c_tid_x = 4;
  p.c_tid_y = 512;
  p.c_cta_x = -64;
  p.c_cta_y = 8192;
  p.c_iter = 1 << 16;
  p.wrap_bytes = 1 << 20;
  const Dim3 block{32, 4};
  for (u32 t = 0; t < block.count(); ++t) {
    const Dim3 tid = unflatten(t, block);
    for (const Dim3& cta : {Dim3{0, 0}, Dim3{3, 2}, Dim3{200, 9}})
      for (u32 iter : {0u, 1u, 7u})
        EXPECT_EQ(analysis::affine_lane_address(p, tid, cta, iter),
                  p.evaluate(tid, cta, iter, 0));
  }
}

TEST(KernelAnalyzerTest, SuiteKernelsAnalyzeCleanly) {
  // Smoke: every Table IV kernel classifies every load, and the irregular
  // benchmarks are the only ones with indirect loads.
  for (const Workload& w : workload_suite()) {
    const analysis::KernelAnalysis ka = analysis::analyze_kernel(w.kernel);
    EXPECT_EQ(ka.loads.size(), w.kernel.num_global_loads()) << w.abbr;
    u32 indirect = 0;
    for (const analysis::LoadAnalysis& la : ka.loads)
      if (la.cls == LoadClass::kIndirect) ++indirect;
    EXPECT_EQ(indirect > 0, w.irregular) << w.abbr;
  }
}

TEST(AnalysisReportTest, TextReportNamesEveryLoad) {
  const analysis::KernelAnalysis ka =
      analysis::analyze_kernel(find_workload("MM").kernel);
  const std::string txt = analysis::text_report(ka);
  EXPECT_NE(txt.find("kernel mm"), std::string::npos);
  EXPECT_NE(txt.find("cta-affine"), std::string::npos);
  EXPECT_NE(txt.find("predicted:"), std::string::npos);
}

TEST(AnalysisReportTest, JsonReportHasStableKeys) {
  const analysis::KernelAnalysis ka =
      analysis::analyze_kernel(find_workload("BFS").kernel);
  const std::string js = analysis::json_report(ka);
  for (const char* key :
       {"\"kernel\":", "\"loads\":", "\"class\":", "\"line_stride\":",
        "\"predicted_excluded_indirect\":", "\"wrap_hazard\":"})
    EXPECT_NE(js.find(key), std::string::npos) << key;
  // Deterministic: two renderings are byte-identical.
  EXPECT_EQ(js, analysis::json_report(ka));
}

TEST(AnalysisReportTest, JsonEscapesSpecialCharacters) {
  // Regression: kernel names flow into JSON string values verbatim, so a
  // quote or backslash in the name must be escaped, not emitted raw.
  KernelBuilder b("quo\"te\\name", {2, 1}, {64, 1});
  b.load(linear_pattern(0x1000'0000, 4, 64));
  const Kernel k = b.build();
  const analysis::KernelAnalysis ka = analysis::analyze_kernel(k);
  const std::string js = analysis::json_report(ka);
  EXPECT_NE(js.find("quo\\\"te\\\\name"), std::string::npos) << js;
  EXPECT_EQ(js.find("quo\"te"), std::string::npos) << js;
  const analysis::ScheduleAdvice adv = analysis::advise_schedule(k, ka);
  const std::string sj = analysis::json_schedule_report(adv);
  EXPECT_NE(sj.find("quo\\\"te\\\\name"), std::string::npos) << sj;
  EXPECT_EQ(sj.find("quo\"te"), std::string::npos) << sj;
}

analysis::ScheduleAdvice advise(const char* workload) {
  const Kernel k = find_workload(workload).kernel;
  return analysis::advise_schedule(k, analysis::analyze_kernel(k));
}

TEST(ScheduleAdvisorTest, PredictsTwoLevelDiscoveryOrder) {
  // CP: 4 warps/CTA, 8-slot ready queue -> two leaders stay ready-resident
  // (CTA 15's pushed in front of CTA 0's); the six demoted leaders are
  // promoted newest-demotion-first. PAS-GTO discovers in launch order.
  const analysis::ScheduleAdvice adv = advise("CP");
  EXPECT_EQ(adv.predicted_leading_warp, 0u);
  EXPECT_TRUE(adv.order_reliable) << adv.order_caveat;
  EXPECT_EQ(adv.warps_per_cta, 4u);
  EXPECT_EQ(adv.max_concurrent_ctas, 8u);
  EXPECT_EQ(adv.initial_wave_ctas, 120u);
  EXPECT_EQ(adv.pending_warps, 24u);
  EXPECT_TRUE(adv.wakeup_opportunity);
  ASSERT_FALSE(adv.waves.empty());
  const analysis::SmWave& w = adv.waves[0];
  EXPECT_EQ(w.sm_id, 0u);
  EXPECT_EQ(w.discovery_pas,
            (std::vector<u32>{15, 0, 105, 90, 75, 60, 45, 30}));
  EXPECT_EQ(w.discovery_pas_gto,
            (std::vector<u32>{0, 15, 30, 45, 60, 75, 90, 105}));
  EXPECT_EQ(w.ready_leader_count, 2u);
}

TEST(ScheduleAdvisorTest, SingleReadyLeaderWhenCtaFillsQueue) {
  // HST: 8 warps/CTA fill the ready queue, so only CTA 0's leader is
  // ready-resident; every later leader funnels through pending.
  const analysis::ScheduleAdvice adv = advise("HST");
  ASSERT_FALSE(adv.waves.empty());
  EXPECT_EQ(adv.waves[0].discovery_pas, (std::vector<u32>{0, 45, 30, 15}));
  EXPECT_EQ(adv.waves[0].discovery_pas_gto,
            (std::vector<u32>{0, 15, 30, 45}));
  EXPECT_EQ(adv.waves[0].ready_leader_count, 1u);
}

TEST(ScheduleAdvisorTest, TimelinessRulesMatchCalibration) {
  // Straight-line first load with a pending population behind it: timely.
  const analysis::ScheduleAdvice cp = advise("CP");
  const analysis::PcSchedule* first = cp.find(cp.first_load_pc);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->timeliness, analysis::TimelinessClass::kTimelyDominant);
  EXPECT_STREQ(first->rule, "leading-fanout-prologue");
  // Second prologue load: ordering past the first stall is config-dependent.
  const analysis::PcSchedule* second = cp.find(0x28);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->timeliness, analysis::TimelinessClass::kMixed);

  // Barrier-synced loop (MM): the barrier lockstep erases the leader's head
  // start each iteration.
  const analysis::ScheduleAdvice mm = advise("MM");
  ASSERT_FALSE(mm.pcs.empty());
  for (const analysis::PcSchedule& ps : mm.pcs) {
    EXPECT_EQ(ps.timeliness, analysis::TimelinessClass::kLateDominant);
    EXPECT_STREQ(ps.rule, "barrier-synced-loop");
  }

  // Loop-body length decides free-running loops: CNV's ~49-cycle body
  // covers the fill round trip, HST's ~17-cycle body does not.
  const analysis::ScheduleAdvice cnv = advise("CNV");
  const analysis::PcSchedule* cl = cnv.find(cnv.first_load_pc);
  ASSERT_NE(cl, nullptr);
  EXPECT_EQ(cl->timeliness, analysis::TimelinessClass::kTimelyDominant);
  EXPECT_STREQ(cl->rule, "long-body-loop");
  const analysis::ScheduleAdvice hst = advise("HST");
  const analysis::PcSchedule* hl = hst.find(hst.first_load_pc);
  ASSERT_NE(hl, nullptr);
  EXPECT_EQ(hl->timeliness, analysis::TimelinessClass::kLateDominant);
  EXPECT_STREQ(hl->rule, "short-body-loop");
}

/// The first reason a section failed, for assertion messages.
std::string first_problem(const OracleSection& s) {
  if (s.divergences.empty()) return s.error;
  return s.divergences.front().kind + ": " + s.divergences.front().detail;
}

bool has_kind(const OracleSection& s, const std::string& kind) {
  for (const OracleDivergence& d : s.divergences)
    if (d.kind == kind) return true;
  return false;
}

TEST(OracleTest, MatrixMulCrossChecksClean) {
  const OracleResult r = cross_check(find_workload("MM"));
  EXPECT_EQ(r.prefetch.status, RunStatus::kOk) << r.prefetch.error;
  EXPECT_TRUE(r.prefetch.divergences.empty()) << first_problem(r.prefetch);
  EXPECT_TRUE(r.prefetch.ok());
}

TEST(OracleTest, IrregularWorkloadCrossChecksClean) {
  // BFS mixes affine and indirect loads: the exclusion-counter check is
  // non-trivial there.
  const OracleResult r = cross_check(find_workload("BFS"));
  EXPECT_EQ(r.prefetch.status, RunStatus::kOk) << r.prefetch.error;
  EXPECT_TRUE(r.prefetch.divergences.empty()) << first_problem(r.prefetch);
  EXPECT_GT(r.analysis.predicted_excluded_indirect, 0u);
}

TEST(OracleTest, InjectedDivergenceIsDetected) {
  // Negative fixture: with skewed predictions the checker MUST report
  // divergence — otherwise it could never catch a real regression.
  OracleOptions opt;
  opt.inject_divergence = true;
  const OracleResult r = cross_check(find_workload("MM"), opt);
  EXPECT_EQ(r.prefetch.status, RunStatus::kOk) << r.prefetch.error;
  EXPECT_FALSE(r.prefetch.ok());
  EXPECT_TRUE(has_kind(r.prefetch, "stride-mismatch"));
  EXPECT_TRUE(has_kind(r.prefetch, "excluded-indirect-count"));
}

TEST(OracleTest, EachFixtureFailsOnlyItsOwnSection) {
  // The schedule advice is computed before either fixture skews anything,
  // so the prefetch skew cannot reach the schedule section, nor the other
  // way round.
  OracleOptions prefetch_only;
  prefetch_only.inject_divergence = true;
  const OracleResult p = cross_check(find_workload("MM"), prefetch_only);
  EXPECT_FALSE(p.prefetch.ok());
  EXPECT_TRUE(has_kind(p.prefetch, "stride-mismatch"));
  EXPECT_TRUE(has_kind(p.prefetch, "excluded-indirect-count"));
  EXPECT_TRUE(p.schedule.ok()) << first_problem(p.schedule);

  OracleOptions schedule_only;
  schedule_only.inject_schedule_divergence = true;
  const OracleResult s = cross_check(find_workload("MM"), schedule_only);
  EXPECT_TRUE(s.prefetch.ok()) << first_problem(s.prefetch);
  EXPECT_FALSE(s.schedule.ok());
  EXPECT_TRUE(has_kind(s.schedule, "pas:leading-mark-warp"));
  EXPECT_TRUE(has_kind(s.schedule, "pas-gto:discovery-order"));
}

TEST(OracleTest, FailedPasRunFailsBothSections) {
  // Both sections read the PAS run, so a run cut short fails both alike.
  OracleOptions opt;
  opt.base.max_cycles = 500;
  const OracleResult r = cross_check(find_workload("MM"), opt);
  EXPECT_EQ(r.prefetch.status, RunStatus::kConfigError);
  EXPECT_EQ(r.schedule.status, RunStatus::kConfigError);
  EXPECT_FALSE(r.prefetch.error.empty());
  EXPECT_EQ(r.prefetch.error, r.schedule.error);
  EXPECT_FALSE(r.ok());
}

TEST(ScheduleOracleTest, CpCrossChecksClean) {
  const OracleResult r = cross_check(find_workload("CP"));
  EXPECT_EQ(r.schedule.status, RunStatus::kOk) << r.schedule.error;
  EXPECT_TRUE(r.schedule.divergences.empty()) << first_problem(r.schedule);
  EXPECT_TRUE(r.schedule.ok());
  EXPECT_EQ(r.advice.predicted_leading_warp, 0u);
}

TEST(ScheduleOracleTest, InjectedScheduleDivergenceIsDetected) {
  // Negative fixture: a skewed leading-warp prediction and reversed
  // discovery orders must be reported, or the gate is toothless.
  OracleOptions opt;
  opt.inject_schedule_divergence = true;
  const OracleResult r = cross_check(find_workload("MM"), opt);
  EXPECT_EQ(r.schedule.status, RunStatus::kOk) << r.schedule.error;
  EXPECT_FALSE(r.schedule.ok());
  EXPECT_TRUE(has_kind(r.schedule, "pas:leading-mark-warp"));
  EXPECT_TRUE(has_kind(r.schedule, "pas-gto:discovery-order"));
}

}  // namespace
}  // namespace caps
