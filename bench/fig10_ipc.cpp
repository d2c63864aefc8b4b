// Figure 10: IPC of INTRA/INTER/MTA/NLP/LAP/ORCH/CAPS normalized to the
// two-level-scheduler baseline without prefetching, per benchmark plus
// regular/irregular/overall means.
#include <cmath>
#include <cstdio>
#include <set>

#include "harness/tables.hpp"
#include "matrix.hpp"

using namespace caps;
using namespace caps::bench;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  std::printf("Fig. 10 — normalized IPC over two-level scheduler without "
              "prefetch%s\n\n", quick ? " (--quick subset)" : "");

  const auto workloads = fig10_workloads(quick);
  const Matrix m = run_matrix(workloads);

  std::vector<std::string> headers{"bench"};
  for (PrefetcherKind pf : prefetcher_legend()) headers.push_back(to_string(pf));
  Table t(headers);

  const std::set<std::string> irregular{"PVR", "CCL", "BFS", "KM"};
  std::map<std::string, std::vector<double>> mean_all, mean_reg, mean_irr;

  for (const std::string& wl : workloads) {
    const auto& runs = m.at(wl);
    if (!runs[0].ok()) {
      // Without a clean baseline nothing normalizes; keep the row visible.
      t.add_row({wl, to_string(runs[0].status)});
      continue;
    }
    const double base_ipc = runs[0].stats.ipc();
    std::vector<std::string> row{wl};
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (!runs[i].ok()) {
        row.push_back(to_string(runs[i].status));
        continue;
      }
      const double norm = runs[i].stats.ipc() / base_ipc;
      const std::string name = to_string(runs[i].cfg.prefetcher);
      row.push_back(fmt_double(norm, 3));
      mean_all[name].push_back(norm);
      (irregular.contains(wl) ? mean_irr : mean_reg)[name].push_back(norm);
    }
    t.add_row(row);
  }

  auto mean_row = [&](const char* label,
                      std::map<std::string, std::vector<double>>& src) {
    std::vector<std::string> row{label};
    for (PrefetcherKind pf : prefetcher_legend())
      row.push_back(fmt_double(geo_mean(src[to_string(pf)]), 3));
    t.add_row(row);
  };
  if (!quick) {
    mean_row("Mean(reg)", mean_reg);
    mean_row("Mean(irreg)", mean_irr);
  }
  mean_row("Mean(all)", mean_all);

  std::printf("%s\n", t.to_string().c_str());
  std::printf("Paper shape: CAPS is the best mean (~1.08, up to ~1.27); "
              "INTER is net negative; MTA <= INTRA; NLP/LAP/ORCH are "
              "roughly neutral (~1.00-1.01).\n");

  const std::string csv = parse_csv_arg(argc, argv);
  if (!csv.empty()) t.write_csv(csv);
  return 0;
}
