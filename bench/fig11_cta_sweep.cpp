// Figure 11: mean IPC of every prefetcher as the concurrent-CTA limit per
// SM sweeps over {1, 2, 4, 8}, normalized to the 8-CTA no-prefetch
// baseline. Reproduces the trend that intra-warp schemes only compete when
// a single CTA removes CTA-boundary uncertainty, while CAPS wins as CTA
// counts grow — and that cutting CTAs is never worth it overall.
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "harness/tables.hpp"

using namespace caps;
using namespace caps::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, /*allow_full=*/true);
  // The full 16-benchmark x 8-config x 4-point sweep is long; default to a
  // representative half of the suite unless --full is given.
  std::vector<std::string> workloads;
  if (args.quick || args.full)
    workloads = fig10_workloads(args.quick);
  else
    workloads = {"CP", "LPS", "HSP", "STE", "CNV", "MM", "SCN", "BFS"};

  std::printf("Fig. 11 — mean IPC by concurrent CTAs/SM (normalized to the "
              "8-CTA baseline)%s\n\n",
              args.full ? "" : " [subset; --full for all]");

  Table t({"CTAs/SM", "BASE", "INTRA", "INTER", "MTA", "NLP", "LAP", "ORCH",
           "CAPS"});

  // BASE first, then the legend.
  std::vector<PrefetcherKind> configs{PrefetcherKind::kNone};
  for (PrefetcherKind pf : prefetcher_legend()) configs.push_back(pf);

  // One flattened sweep over {CTA limit} x {config} x {workload}; the
  // executor returns results in submission order.
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
  const auto run_at = [&](std::size_t point, std::size_t config,
                          std::size_t wl) -> const RunResult& {
    return runs[(point * configs.size() + config) * workloads.size() + wl];
  };

  // Normalize by each workload's 8-CTA BASE run of the same sweep. A
  // workload whose baseline failed is left out of every row (reported by
  // usable()).
  std::vector<std::optional<double>> base8(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const RunResult& base = run_at(cta_points.size() - 1, 0, w);
    if (usable(base)) base8[w] = base.stats.ipc();
  }

  for (std::size_t p = 0; p < cta_points.size(); ++p) {
    std::vector<std::string> row{std::to_string(cta_points[p])};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      std::vector<double> norms;
      for (std::size_t w = 0; w < workloads.size(); ++w) {
        const RunResult& r = run_at(p, c, w);
        if (!base8[w] || !usable(r)) continue;
        norms.push_back(r.stats.ipc() / *base8[w]);
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

  if (!args.csv.empty()) t.write_csv(args.csv);
  return 0;
}
