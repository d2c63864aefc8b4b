// Figure 11: mean IPC of every prefetcher as the concurrent-CTA limit per
// SM sweeps over {1, 2, 4, 8}, normalized to the 8-CTA no-prefetch
// baseline. Reproduces the trend that intra-warp schemes only compete when
// a single CTA removes CTA-boundary uncertainty, while CAPS wins as CTA
// counts grow — and that cutting CTAs is never worth it overall.
#include <cstdio>

#include "harness/tables.hpp"
#include "matrix.hpp"

using namespace caps;
using namespace caps::bench;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  // The full 16-benchmark x 8-config x 4-point sweep is long; default to a
  // representative half of the suite unless --full is given.
  bool full = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--full") full = true;
  std::vector<std::string> workloads;
  if (quick || full)
    workloads = fig10_workloads(quick);
  else
    workloads = {"CP", "LPS", "HSP", "STE", "CNV", "MM", "SCN", "BFS"};

  std::printf("Fig. 11 — mean IPC by concurrent CTAs/SM (normalized to the "
              "8-CTA baseline)%s\n\n", full ? "" : " [subset; --full for all]");

  Table t({"CTAs/SM", "BASE", "INTRA", "INTER", "MTA", "NLP", "LAP", "ORCH",
           "CAPS"});

  // Per-workload 8-CTA baseline IPC for normalization. A workload whose
  // baseline fails is dropped from the sweep (reported by usable()).
  std::map<std::string, double> base8;
  {
    std::vector<RunConfig> cfgs;
    for (const std::string& wl : workloads) {
      RunConfig rc;
      rc.workload = wl;
      rc.max_ctas_per_sm = 8;
      cfgs.push_back(rc);
    }
    const std::vector<RunResult> runs = run_sweep(std::move(cfgs));
    std::vector<std::string> kept;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!usable(runs[i])) continue;
      base8[workloads[i]] = runs[i].stats.ipc();
      kept.push_back(workloads[i]);
    }
    workloads = std::move(kept);
  }

  // BASE first, then the legend.
  std::vector<PrefetcherKind> configs{PrefetcherKind::kNone};
  for (PrefetcherKind pf : prefetcher_legend()) configs.push_back(pf);

  // One flattened sweep over {CTA limit} x {config} x {workload}; the
  // executor returns results in submission order, so consume with a cursor
  // running in the same construction order.
  const std::vector<u32> cta_points{1, 2, 4, 8};
  std::vector<RunConfig> cfgs;
  cfgs.reserve(cta_points.size() * configs.size() * workloads.size());
  for (u32 ctas : cta_points) {
    for (PrefetcherKind pf : configs) {
      for (const std::string& wl : workloads) {
        RunConfig rc;
        rc.workload = wl;
        rc.prefetcher = pf;
        rc.max_ctas_per_sm = ctas;
        cfgs.push_back(std::move(rc));
      }
    }
  }
  std::fprintf(stderr, "  running %zu configurations...\n", cfgs.size());
  const std::vector<RunResult> runs = run_sweep(std::move(cfgs));

  std::size_t cursor = 0;
  for (u32 ctas : cta_points) {
    std::vector<std::string> row{std::to_string(ctas)};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      std::vector<double> norms;
      for (const std::string& wl : workloads) {
        const RunResult& r = runs[cursor++];
        if (!usable(r)) continue;
        norms.push_back(r.stats.ipc() / base8[wl]);
      }
      row.push_back(fmt_double(geo_mean(norms), 3));
    }
    t.add_row(row);
  }

  std::printf("%s\n", t.to_string().c_str());
  std::printf("Paper shape: every 1-CTA configuration is far below the "
              "8-CTA baseline (cutting CTAs never pays); INTRA/MTA are "
              "relatively best at 1 CTA; CAPS pulls ahead as the CTA count "
              "grows.\n");

  const std::string csv = parse_csv_arg(argc, argv);
  if (!csv.empty()) t.write_csv(csv);
  return 0;
}
