// Figure 13: bandwidth overhead of prefetching — (a) fetch requests from
// the cores and (b) data read from DRAM, both normalized to the
// no-prefetch baseline.
#include <cstdio>

#include "harness/tables.hpp"
#include "matrix.hpp"

using namespace caps;
using namespace caps::bench;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  std::printf("Fig. 13 — bandwidth overhead vs baseline%s\n\n",
              quick ? " (--quick subset)" : "");

  const auto workloads = fig10_workloads(quick);
  const Matrix m = run_matrix(workloads);

  struct Metric {
    const char* label;
    u64 (*get)(const GpuStats&);
  };
  const Metric metrics[] = {
      {"fetch requests from cores",
       [](const GpuStats& s) { return s.traffic.core_requests; }},
      {"data read from DRAM",
       [](const GpuStats& s) { return s.dram.reads; }},
  };

  for (const Metric& metric : metrics) {
    std::vector<std::string> headers{"bench"};
    for (PrefetcherKind pf : prefetcher_legend())
      headers.push_back(to_string(pf));
    Table t(headers);
    std::map<std::string, std::vector<double>> means;

    for (const std::string& wl : workloads) {
      const auto& runs = m.at(wl);
      if (!runs[0].ok()) {
        t.add_row({wl, to_string(runs[0].status)});
        continue;
      }
      const double base = static_cast<double>(metric.get(runs[0].stats));
      std::vector<std::string> row{wl};
      for (std::size_t i = 1; i < runs.size(); ++i) {
        if (!runs[i].ok()) {
          row.push_back(to_string(runs[i].status));
          continue;
        }
        const double norm =
            base == 0 ? 1.0 : static_cast<double>(metric.get(runs[i].stats)) / base;
        row.push_back(fmt_double(norm, 3));
        means[to_string(runs[i].cfg.prefetcher)].push_back(norm);
      }
      t.add_row(row);
    }
    std::vector<std::string> mean_row{"Mean"};
    for (PrefetcherKind pf : prefetcher_legend())
      mean_row.push_back(fmt_double(geo_mean(means[to_string(pf)]), 3));
    t.add_row(mean_row);
    std::printf("(%s)\n%s\n", metric.label, t.to_string().c_str());
  }

  std::printf("Paper shape: CAPS adds <~3%% traffic; INTER roughly doubles "
              "it (high coverage, low accuracy); MTA also inflates "
              "bandwidth significantly.\n");
  const std::string csv = parse_csv_arg(argc, argv);
  (void)csv;
  return 0;
}
