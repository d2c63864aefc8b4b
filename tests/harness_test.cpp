// Tests for the experiment harness: table rendering, the energy model, and
// the Fig. 1 / Fig. 4 trace analyses.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/energy.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "harness/tables.hpp"
#include "harness/trace_analysis.hpp"

namespace caps {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.to_csv(), "a,b,c\n1,,\n");
}

TEST(TableTest, WritesCsvFile) {
  Table t({"x"});
  t.add_row({"42"});
  const std::string path = "/tmp/capsim_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x");
  std::remove(path.c_str());
}

TEST(FormatTest, Helpers) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_percent(0.974, 1), "97.4%");
}

TEST(BenchArgsTest, ParsesFlags) {
  const char* argv[] = {"prog", "--csv", "/tmp/x", "--quick", "--full"};
  char** args = const_cast<char**>(argv);
  const BenchArgs none = parse_bench_args(1, args);
  EXPECT_FALSE(none.quick);
  EXPECT_EQ(none.csv, "");
  const BenchArgs all = parse_bench_args(5, args);
  EXPECT_EQ(all.csv, "/tmp/x");
  EXPECT_TRUE(all.quick);
  EXPECT_TRUE(all.full);
}

TEST(BenchArgsTest, RejectsAnythingElse) {
  const auto exits_with_usage = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    EXPECT_EXIT(parse_bench_args(static_cast<int>(argv.size()),
                                 const_cast<char**>(argv.data())),
                ::testing::ExitedWithCode(2), "usage: prog");
  };
  exits_with_usage({"--qiuck"});
  exits_with_usage({"--csv"});   // no path
  exits_with_usage({"--csv=/tmp/x"});
  exits_with_usage({"--quick", "extra"});
}

TEST(EnergyTest, MoreEventsMoreEnergy) {
  EnergyModel m;
  GpuConfig cfg;
  GpuStats a;
  a.cycles = 1000;
  a.sm.issued_instructions = 1000;
  GpuStats b = a;
  b.dram.reads = 500;
  EXPECT_GT(m.total_uj(b, cfg, false), m.total_uj(a, cfg, false));
}

TEST(EnergyTest, CapsTablesAddMeasurableButSmallEnergy) {
  EnergyModel m;
  GpuConfig cfg;
  GpuStats s;
  s.cycles = 100000;
  s.sm.issued_instructions = 100000;
  s.pf_engine.table_reads = 5000;
  s.pf_engine.table_writes = 2000;
  const double without = m.total_uj(s, cfg, false);
  const double with = m.total_uj(s, cfg, true);
  EXPECT_GT(with, without);
  EXPECT_LT((with - without) / without, 0.02);  // tables are ~free
}

TEST(EnergyTest, StaticEnergyScalesWithCycles) {
  EnergyModel m;
  GpuConfig cfg;
  GpuStats fast, slow;
  fast.cycles = 1000;
  slow.cycles = 2000;
  EXPECT_GT(m.total_uj(slow, cfg, false), m.total_uj(fast, cfg, false));
}

TEST(TraceAnalysisTest, HottestPcSelection) {
  LoadTraceCollector c;
  const TraceSink sink = c.sink();
  TraceEvent e{};
  e.pc = 0x10;
  sink(e);
  sink(e);
  e.pc = 0x20;
  sink(e);
  // Events of other kinds never reach the collector.
  e.kind = TraceKind::kPrefetchTimely;
  sink(e);
  sink(e);
  EXPECT_EQ(c.events().size(), 3u);
  EXPECT_EQ(c.hottest_pc(), 0x10u);
}

TEST(TraceAnalysisTest, StrideDistanceDetectsCtaBoundary) {
  // Synthetic trace mirroring Fig. 1: one SM, 2 CTAs of 4 warps. Warp
  // addresses stride by 256 within a CTA; the second CTA's base is offset
  // by a non-multiple amount, so distances crossing the boundary mispredict.
  std::vector<TraceEvent> events;
  auto add = [&](i32 slot, u32 cta, Addr addr, Cycle cyc) {
    TraceEvent e{};
    e.sm_id = 0;
    e.pc = 0x40;
    e.cta_flat = cta;
    e.warp_slot = slot;
    e.line = addr;
    e.cycle = cyc;
    events.push_back(e);
  };
  for (u32 w = 0; w < 4; ++w)
    add(static_cast<i32>(w), 0, 0x10000 + w * 256, 10 * w);
  for (u32 w = 0; w < 4; ++w)
    add(static_cast<i32>(4 + w), 7, 0x95000 + w * 256, 100 + 10 * w);

  auto pts = analyze_stride_distance(events, 0x40, 7);
  ASSERT_EQ(pts.size(), 7u);
  // Distance 1: 6 of 7 pairs correct (the one crossing CTAs is wrong).
  EXPECT_EQ(pts[0].distance, 1u);
  EXPECT_EQ(pts[0].pairs, 7u);
  EXPECT_NEAR(pts[0].accuracy, 6.0 / 7.0, 1e-9);
  // Distance 4: every pair crosses the CTA boundary -> accuracy 0.
  EXPECT_EQ(pts[3].pairs, 4u);
  EXPECT_DOUBLE_EQ(pts[3].accuracy, 0.0);
  // Gap grows with distance.
  EXPECT_GT(pts[3].gap_cycles, pts[0].gap_cycles);
}

TEST(TraceAnalysisTest, FirstExecutionOnlyIsKept) {
  std::vector<TraceEvent> events;
  TraceEvent e{};
  e.pc = 0x40;
  e.warp_slot = 0;
  e.line = 0x1000;
  events.push_back(e);
  e.line = 0x9999;  // second execution of the same slot: ignored
  events.push_back(e);
  e.warp_slot = 1;
  e.line = 0x1100;
  events.push_back(e);
  auto pts = analyze_stride_distance(events, 0x40, 1);
  EXPECT_DOUBLE_EQ(pts[0].accuracy, 1.0);  // 0x1000 -> 0x1100 stride held
}

TEST(TraceAnalysisTest, CollectorSinksARealRun) {
  LoadTraceCollector c;
  RunConfig rc;
  rc.workload = "MM";
  rc.base.num_sms = 2;
  run_experiment(rc, c.sink());
  EXPECT_GT(c.events().size(), 100u);
  EXPECT_NE(c.hottest_pc(), 0u);
}

// Demand-miss-triggered engines (NLP, LAP) enqueue their prefetches at the
// miss cycle, so every outcome event dates the prefetch strictly after
// cycle 0 and no later than the outcome itself.
TEST(TraceAnalysisTest, MissTriggeredPrefetchesCarryTheirIssueCycle) {
  for (PrefetcherKind pf : {PrefetcherKind::kNlp, PrefetcherKind::kLap}) {
    RunConfig rc;
    rc.workload = "MM";
    rc.prefetcher = pf;
    rc.base.num_sms = 2;
    std::vector<TraceEvent> outcomes;
    const RunResult r = run_experiment(rc, [&outcomes](const TraceEvent& e) {
      switch (e.kind) {
        case TraceKind::kPrefetchTimely:
        case TraceKind::kPrefetchLate:
        case TraceKind::kPrefetchEarlyEvicted:
          outcomes.push_back(e);
          break;
        case TraceKind::kLoadIssue:
        case TraceKind::kLeadingMark:
        case TraceKind::kLeadingClear:
        case TraceKind::kEagerWakeup:
        case TraceKind::kForcedDemotion:
          break;
      }
    });
    ASSERT_EQ(r.status, RunStatus::kOk) << r.error;
    ASSERT_FALSE(outcomes.empty()) << to_string(pf);
    std::size_t misdated = 0;
    std::string first;
    for (const TraceEvent& e : outcomes) {
      if (e.issue_cycle > 0 && e.issue_cycle <= e.cycle) continue;
      if (misdated++ == 0)
        first = "issue_cycle " + std::to_string(e.issue_cycle) + ", cycle " +
                std::to_string(e.cycle);
    }
    EXPECT_EQ(misdated, 0u) << to_string(pf) << ": " << misdated << " of "
                            << outcomes.size()
                            << " outcome events misdated; first: " << first;
  }
}

TEST(Fig10MatrixTest, SweepReturnsLegendOrder) {
  std::vector<RunConfig> cfgs = fig10_matrix({"SCN"});
  for (RunConfig& rc : cfgs) rc.base.num_sms = 2;
  const auto results = run_sweep(std::move(cfgs));
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(results[0].cfg.prefetcher, PrefetcherKind::kNone);
  EXPECT_EQ(results[7].cfg.prefetcher, PrefetcherKind::kCaps);
  for (const RunResult& r : results) EXPECT_FALSE(r.stats.hit_cycle_limit);
}

}  // namespace
}  // namespace caps
