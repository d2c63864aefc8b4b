// Figure 1: accuracy of naive inter-warp stride prefetching and the issue
// cycle gap as a function of warp distance, on matrixMul (the stride-
// friendly benchmark of Section I). Reproduces the steep accuracy drop at
// the CTA boundary (MM has 8 warps per CTA).
#include <cstdio>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "harness/tables.hpp"
#include "harness/trace_analysis.hpp"

using namespace caps;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  std::printf("Fig. 1 — inter-warp stride prediction accuracy vs warp "
              "distance (matrixMul, two-level scheduler)\n\n");

  LoadTraceCollector collector;
  RunConfig rc;
  rc.workload = "MM";
  run_sweep(std::vector<SweepJob>{{rc, collector.sink()}});

  const Addr pc = collector.hottest_pc();
  const u32 wpc = find_workload("MM").kernel.warps_per_cta();
  const auto points = analyze_stride_distance(collector.events(), pc, 10);

  Table t({"distance", "accuracy", "gap_cycles", "pairs"});
  for (const StrideDistancePoint& p : points)
    t.add_row({std::to_string(p.distance), fmt_percent(p.accuracy),
               fmt_double(p.gap_cycles, 1), std::to_string(p.pairs)});
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Paper shape: high accuracy at short distances, steep drop at "
              "distance %u (CTA boundary: MM has %u warps/CTA); gap grows "
              "with distance.\n", wpc - 1, wpc);

  if (!args.csv.empty()) t.write_csv(args.csv);
  return 0;
}
