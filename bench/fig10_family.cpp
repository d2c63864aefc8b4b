// Figures 10, 12, 13 and 15 from one sweep: every Table IV workload under
// BASE (two-level scheduler, no prefetch) and the seven Fig. 10 prefetchers,
// each with the scheduler the paper pairs it with.
//   Fig. 10  IPC normalized to BASE, per benchmark plus the means.
//   Fig. 12  prefetch coverage (issued prefetches / demand fetches) and
//            accuracy (prefetches consumed by demand / issued).
//   Fig. 13  bandwidth overhead: fetch requests from the cores and data
//            read from DRAM, normalized to BASE.
//   Fig. 15  CAPS energy normalized to BASE: the GPUWattch-style event
//            model plus the published CAPS table costs (15.07 pJ/access,
//            550 uW static per SM).
// `--quick` runs the four-kernel smoke subset. `--csv P` writes
// P.fig10.csv, P.fig12.{coverage,accuracy}.csv,
// P.fig13.{requests,dram_reads}.csv and P.fig15.csv.
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/energy.hpp"
#include "harness/tables.hpp"

using namespace caps;
using namespace caps::bench;

namespace {

/// results[workload][config]: config 0 = BASE, then the Fig. 10 legend.
using Matrix = std::map<std::string, std::vector<RunResult>>;

Matrix run_matrix(const std::vector<std::string>& workloads) {
  // Flatten the whole matrix (workloads x 8 configurations) into one sweep
  // so the executor can keep every worker busy across workload boundaries.
  std::vector<RunConfig> cfgs = fig10_matrix(workloads);
  std::fprintf(stderr, "  running %zu configurations on %u thread(s)...\n",
               cfgs.size(), resolve_sweep_threads(0, cfgs.size()));
  std::vector<RunResult> runs = run_sweep(std::move(cfgs));

  Matrix m;
  const std::size_t per_wl = 1 + prefetcher_legend().size();
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    auto first = runs.begin() + static_cast<std::ptrdiff_t>(w * per_wl);
    std::vector<RunResult> slice(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(per_wl)));
    for (const RunResult& r : slice) usable(r);  // report failures up front
    m[workloads[w]] = std::move(slice);
  }
  return m;
}

using Value = std::function<double(const RunResult& run,
                                   const RunResult& base)>;
using Format = std::string (*)(double);

std::string fixed1(double v) { return fmt_double(v, 1); }
std::string fixed3(double v) { return fmt_double(v, 3); }
std::string percent(double v) { return fmt_percent(v); }

/// One table column: `value` of each workload's run of matrix config
/// `config` (0 = BASE), given that workload's BASE run.
struct Column {
  std::string header;
  std::size_t config;
  Value value;
  Format fmt;
  bool averaged = true;  ///< false: blank in the mean rows
};

/// A mean row and the workloads it averages.
struct MeanRow {
  const char* label;
  std::function<bool(const std::string&)> includes;
};

bool any_workload(const std::string&) { return true; }

/// One printed table of a figure.
struct Panel {
  const char* label;  ///< printed as "(label)" above the table; may be null
  const char* csv;    ///< CSV file suffix
  std::vector<Column> cols;
  /// Values are relative to BASE: a workload whose BASE run failed shows
  /// only that status, and the means are geometric (else arithmetic).
  bool normalized;
  std::vector<MeanRow> means{{"Mean", any_workload}};
};

/// The seven Fig. 10 prefetchers as columns of `value`.
std::vector<Column> legend_columns(const Value& value, Format fmt) {
  std::vector<Column> cols;
  for (std::size_t i = 0; i < prefetcher_legend().size(); ++i)
    cols.push_back({to_string(prefetcher_legend()[i]), i + 1, value, fmt});
  return cols;
}

/// Render `p` over `workloads`: one row per workload (a failed run shows
/// its status in its cell), then the mean rows.
Table legend_table(const Matrix& m, const std::vector<std::string>& workloads,
                   const Panel& p) {
  std::vector<std::string> headers{"bench"};
  for (const Column& c : p.cols) headers.push_back(c.header);
  Table t(headers);
  // samples[mean row][column], in workload order.
  std::vector<std::vector<std::vector<double>>> samples(
      p.means.size(), std::vector<std::vector<double>>(p.cols.size()));

  for (const std::string& wl : workloads) {
    const std::vector<RunResult>& runs = m.at(wl);
    if (p.normalized && !runs[0].ok()) {
      // Without a clean baseline nothing normalizes; keep the row visible.
      t.add_row({wl, runs[0].outcome()});
      continue;
    }
    std::vector<std::string> row{wl};
    for (std::size_t c = 0; c < p.cols.size(); ++c) {
      const RunResult& r = runs[p.cols[c].config];
      if (!r.ok()) {
        row.push_back(r.outcome());
        continue;
      }
      const double v = p.cols[c].value(r, runs[0]);
      row.push_back(p.cols[c].fmt(v));
      for (std::size_t k = 0; k < p.means.size(); ++k)
        if (p.means[k].includes(wl)) samples[k][c].push_back(v);
    }
    t.add_row(std::move(row));
  }

  const auto mean = p.normalized ? geo_mean : arith_mean;
  for (std::size_t k = 0; k < p.means.size(); ++k) {
    std::vector<std::string> row{p.means[k].label};
    for (std::size_t c = 0; c < p.cols.size(); ++c)
      row.push_back(p.cols[c].averaged ? p.cols[c].fmt(mean(samples[k][c]))
                                       : "");
    t.add_row(std::move(row));
  }
  return t;
}

/// Ratio of `get` on the run to `get` on BASE (1 when BASE counted none).
Value over_base(u64 (*get)(const GpuStats&)) {
  return [get](const RunResult& r, const RunResult& base) {
    const double b = static_cast<double>(get(base.stats));
    return b == 0 ? 1.0 : static_cast<double>(get(r.stats)) / b;
  };
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> workloads = fig10_workloads(args.quick);
  const Matrix m = run_matrix(workloads);

  const std::set<std::string> irregular{"PVR", "CCL", "BFS", "KM"};
  std::vector<MeanRow> ipc_means{{"Mean(all)", any_workload}};
  if (!args.quick) {
    ipc_means.insert(
        ipc_means.begin(),
        {{"Mean(reg)",
          [&](const std::string& wl) { return !irregular.contains(wl); }},
         {"Mean(irreg)",
          [&](const std::string& wl) { return irregular.contains(wl); }}});
  }

  const EnergyModel model;
  const GpuConfig cfg;
  const std::size_t caps_config = prefetcher_legend().size();  // CAPS is last
  const Value base_uj = [&](const RunResult& r, const RunResult&) {
    return model.total_uj(r.stats, cfg, false);
  };
  const Value caps_uj = [&](const RunResult& r, const RunResult&) {
    return model.total_uj(r.stats, cfg, true);
  };

  struct Figure {
    const char* title;
    std::vector<Panel> panels;
    const char* shape;
  };
  const Figure figures[] = {
      {"Fig. 10 — normalized IPC over two-level scheduler without prefetch",
       {{nullptr, "fig10",
         legend_columns(
             [](const RunResult& r, const RunResult& base) {
               return r.stats.ipc() / base.stats.ipc();
             },
             fixed3),
         true, ipc_means}},
       "Paper shape: CAPS is the best mean (~1.08, up to ~1.27); INTER is "
       "net negative; MTA <= INTRA; NLP/LAP/ORCH are roughly neutral "
       "(~1.00-1.01)."},
      {"Fig. 12 — prefetch coverage and accuracy",
       {{"coverage", "fig12.coverage",
         legend_columns([](const RunResult& r,
                           const RunResult&) { return r.stats.pf_coverage(); },
                        percent),
         false},
        {"accuracy", "fig12.accuracy",
         legend_columns([](const RunResult& r,
                           const RunResult&) { return r.stats.pf_accuracy(); },
                        percent),
         false}},
       "Paper shape: CAPS pairs moderate coverage (~18%) with very high "
       "accuracy (~97%); INTER/MTA have high coverage but low accuracy; "
       "irregular benchmarks (PVR/CCL/BFS/KM) show low CAPS coverage because "
       "indirect loads are excluded."},
      {"Fig. 13 — bandwidth overhead vs baseline",
       {{"fetch requests from cores", "fig13.requests",
         legend_columns(over_base([](const GpuStats& s) {
                          return s.traffic.core_requests;
                        }),
                        fixed3),
         true},
        {"data read from DRAM", "fig13.dram_reads",
         legend_columns(
             over_base([](const GpuStats& s) { return s.dram.reads; }),
             fixed3),
         true}},
       "Paper shape: CAPS adds <~3% traffic; INTER roughly doubles it (high "
       "coverage, low accuracy); MTA also inflates bandwidth "
       "significantly."},
      {"Fig. 15 — normalized energy of CAPS",
       {{nullptr, "fig15",
         {{"baseline (uJ)", 0, base_uj, fixed1, false},
          {"CAPS (uJ)", caps_config, caps_uj, fixed1, false},
          {"normalized", caps_config,
           [&](const RunResult& r, const RunResult& base) {
             return caps_uj(r, base) / base_uj(base, base);
           },
           fixed3}},
         true}},
       "Paper shape: CAPS consumes ~2% less energy on average — the runtime "
       "reduction outweighs the tiny table energy and the small traffic "
       "increase."},
  };

  for (const Figure& f : figures) {
    std::printf("%s%s\n\n", f.title, args.quick ? " (--quick subset)" : "");
    for (const Panel& p : f.panels) {
      const Table t = legend_table(m, workloads, p);
      if (p.label != nullptr) std::printf("(%s)\n", p.label);
      std::printf("%s\n", t.to_string().c_str());
      if (!args.csv.empty()) t.write_csv(args.csv + "." + p.csv + ".csv");
    }
    std::printf("%s\n", f.shape);
  }
  return 0;
}
