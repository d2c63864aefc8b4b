// Figure 4: average iteration count of the four hottest loads per kernel,
// plus repeated/total static load counts. Printed as measured on our
// synthetic kernels next to the paper's reported values (loop trip counts
// are scaled down for simulation time; see EXPERIMENTS.md).
#include <cstdio>

#include "harness/tables.hpp"
#include "harness/trace_analysis.hpp"
#include "workloads/workload.hpp"

using namespace caps;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  std::printf("Fig. 4 — loads executed in loops (measured vs paper)\n\n");

  Table t({"bench", "repeated/total (measured)", "avg iters (measured)",
           "repeated/total (paper)", "avg iters (paper)"});
  for (const Workload& w : workload_suite()) {
    const LoadLoopProfile p = analyze_load_loops(w.kernel);
    t.add_row({w.abbr,
               std::to_string(p.repeated_loads) + "/" +
                   std::to_string(p.total_loads),
               fmt_double(p.top4_mean(), 1),
               std::to_string(w.paper_repeated_loads) + "/" +
                   std::to_string(w.paper_total_loads),
               std::to_string(w.paper_avg_iterations)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Shape to check: most regular kernels have few or no "
              "in-loop loads (intra-warp prefetching starves); loop-heavy "
              "kernels (LPS, STE, HST, MM, KM) re-execute theirs.\n");

  if (!args.csv.empty()) t.write_csv(args.csv);
  return 0;
}
