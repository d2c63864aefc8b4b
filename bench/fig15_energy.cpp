// Figure 15: energy of CAPS runs normalized to the baseline, using the
// GPUWattch-style event-energy model plus the paper's published CAPS table
// costs (15.07 pJ/access, 550 uW static per SM). Paper mean: ~0.98.
#include <cstdio>

#include "harness/energy.hpp"
#include "harness/tables.hpp"
#include "matrix.hpp"

using namespace caps;
using namespace caps::bench;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  std::printf("Fig. 15 — normalized energy of CAPS%s\n\n",
              quick ? " (--quick subset)" : "");

  const EnergyModel model;
  const GpuConfig cfg;
  Table t({"bench", "baseline (uJ)", "CAPS (uJ)", "normalized"});
  std::vector<double> norms;

  const std::vector<std::string> workloads = fig10_workloads(quick);
  // One flattened sweep: (baseline, CAPS) per workload, in workload order.
  std::vector<RunConfig> sweep;
  sweep.reserve(workloads.size() * 2);
  for (const std::string& wl : workloads) {
    RunConfig rc;
    rc.workload = wl;
    rc.prefetcher = PrefetcherKind::kNone;
    sweep.push_back(rc);
    rc.prefetcher = PrefetcherKind::kCaps;
    sweep.push_back(std::move(rc));
  }
  std::fprintf(stderr, "  running %zu configurations...\n", sweep.size());
  const std::vector<RunResult> runs = run_sweep(std::move(sweep));

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::string& wl = workloads[w];
    const RunResult& base = runs[w * 2];
    const RunResult& caps_run = runs[w * 2 + 1];
    if (!usable(base) || !usable(caps_run)) {
      t.add_row({wl, "", "",
                 to_string(base.ok() ? caps_run.status : base.status)});
      continue;
    }

    const double e_base = model.total_uj(base.stats, cfg, false);
    const double e_caps = model.total_uj(caps_run.stats, cfg, true);
    const double norm = e_caps / e_base;
    norms.push_back(norm);
    t.add_row({wl, fmt_double(e_base, 1), fmt_double(e_caps, 1),
               fmt_double(norm, 3)});
  }
  t.add_row({"Mean", "", "", fmt_double(geo_mean(norms), 3)});

  std::printf("%s\n", t.to_string().c_str());
  std::printf("Paper shape: CAPS consumes ~2%% less energy on average — the "
              "runtime reduction outweighs the tiny table energy and the "
              "small traffic increase.\n");

  const std::string csv = parse_csv_arg(argc, argv);
  if (!csv.empty()) t.write_csv(csv);
  return 0;
}
