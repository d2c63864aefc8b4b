// Every figure and table of the paper from one driver. Figures 10 to 15 come
// from one sweep. Each panel names its columns as points — a prefetcher,
// optionally a scheduler and a concurrent-CTA limit, and the CAPS eager
// wake-up — over a workload list. A point resolves as run_experiment
// resolves it; identical resolved points on one workload run once, and every
// panel reads its cells from that one result set.
//   Fig. 1   accuracy of naive inter-warp stride prefetching and the issue
//            cycle gap by warp distance on matrixMul, from the load-issue
//            trace of Fig. 10's MM run under BASE: the accuracy drops at
//            the CTA boundary (MM has 8 warps per CTA).
//   Fig. 4   iteration count of the four hottest loads per kernel and the
//            repeated/total static load counts, measured on the synthetic
//            kernels next to the paper's values (no simulation).
//   Fig. 10  IPC normalized to BASE (two-level scheduler, no prefetch) of the
//            seven prefetchers, each with the scheduler the paper pairs it
//            with, per benchmark plus the means.
//   Fig. 11  mean IPC of BASE and the seven prefetchers as the CTA limit per
//            SM sweeps over {1, 2, 4, 8}, normalized to the 8-CTA BASE run.
//   Fig. 12  prefetch coverage (issued prefetches / demand fetches) and
//            accuracy (prefetches consumed by demand / issued).
//   Fig. 13  bandwidth overhead: fetch requests from the cores and data
//            read from DRAM, normalized to BASE.
//   Fig. 14  timeliness: (a) the early-prefetch ratio (prefetched lines
//            evicted before use) of INTRA/INTER/MTA/CAPS and of CAPS without
//            the eager wake-up; (b) the prefetch distance (cycles from
//            prefetch issue to the consuming demand) of CAPS on LRR, plain
//            two-level and PAS.
//   Fig. 15  CAPS energy normalized to BASE: the GPUWattch-style event
//            model plus the published CAPS table costs (15.07 pJ/access,
//            550 uW static per SM).
//   Tables I and II  the PerCTA/DIST entry layout and the per-SM storage of
//            CAPS, plus the synthesis numbers the energy model consumes.
// Figs. 10 and 12 to 15 run all of Table IV; Fig. 11 runs an
// eight-benchmark half of it unless `--full` is given. `--quick` runs the
// four-kernel smoke subset in every simulated figure but Fig. 1. `--csv P`
// writes one P.<table>.csv per table: P.fig01.csv, P.fig04.csv, P.fig10.csv,
// P.fig11.csv, P.fig12.{coverage,accuracy}.csv,
// P.fig13.{requests,dram_reads}.csv, P.fig14a.csv, P.fig14b.csv, P.fig15.csv
// and P.tab2.csv. Tables go to stdout; stderr reports each failed run once
// and ends with the count of unique runs and of cells.
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/hw_cost.hpp"
#include "harness/energy.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "harness/tables.hpp"
#include "harness/trace_analysis.hpp"

using namespace caps;

namespace {

/// Geometric mean (0 for no samples): the normalized figures' "Mean".
double geo_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Arithmetic mean (0 for no samples): the ratio figures' "Mean".
double arith_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// One configuration of a panel (a column, or a row of Fig. 14), run on each
/// of the panel's workloads. An unset option takes run_experiment's default.
struct Point {
  PrefetcherKind pf = PrefetcherKind::kNone;
  std::optional<SchedulerKind> scheduler = std::nullopt;
  std::optional<u32> max_ctas_per_sm = std::nullopt;
  bool eager_wakeup = true;
};

/// The point's label: its prefetcher, then each option it sets, e.g.
/// "CAPS on LRR", "BASE at 2 CTAs/SM" or "CAPS w/o Wakeup".
std::string label(const Point& p) {
  std::string s = to_string(p.pf);
  if (p.scheduler) s += std::string(" on ") + to_string(*p.scheduler);
  if (p.max_ctas_per_sm)
    s += " at " + std::to_string(*p.max_ctas_per_sm) + " CTAs/SM";
  if (!p.eager_wakeup) s += " w/o Wakeup";
  return s;
}

/// Every cell of every panel, backed by one run per distinct resolved
/// configuration and workload.
class ResultSet {
 public:
  using Id = std::size_t;

  /// Add `p` on each of `workloads`; its cells are read back by the id.
  Id add(const Point& p, const std::vector<std::string>& workloads) {
    const Id id = points_++;
    for (const std::string& wl : workloads) {
      // Resolve as run_experiment does, so equal machines share one key.
      const Key key{wl, p.pf,
                    p.scheduler.value_or(default_scheduler_for(p.pf)),
                    p.max_ctas_per_sm.value_or(GpuConfig{}.max_ctas_per_sm),
                    p.eager_wakeup};
      const auto [it, fresh] = run_of_.try_emplace(key, jobs_.size());
      if (fresh) {
        RunConfig rc;
        rc.workload = wl;
        rc.prefetcher = p.pf;
        rc.scheduler = p.scheduler;
        rc.max_ctas_per_sm = p.max_ctas_per_sm;
        rc.caps_eager_wakeup = p.eager_wakeup;
        jobs_.emplace_back(std::move(rc));
        labels_.push_back(label(p));
      }
      cells_[{id, wl}] = it->second;
    }
    return id;
  }

  /// Trace the run behind the cell of `point` on `wl` into `sink`.
  void trace(Id point, const std::string& wl, TraceSink sink) {
    jobs_[cells_.at({point, wl})].trace = std::move(sink);
  }

  /// Run every unique configuration in one sweep, then report each failed
  /// run once, by the label of the first point that added it.
  void run() {
    std::fprintf(stderr, "  running %zu unique runs for %zu cells on %u "
                 "thread(s)...\n", jobs_.size(), cells_.size(),
                 resolve_sweep_threads(0, jobs_.size()));
    runs_ = run_sweep(std::move(jobs_));
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const RunResult& r = runs_[i];
      if (!r.ok())
        std::fprintf(stderr, "  SKIP %s/%s: %s%s%s\n",
                     r.cfg.workload.c_str(), labels_[i].c_str(), r.outcome(),
                     r.error.empty() ? "" : " — ", r.error.c_str());
    }
  }

  const RunResult& at(Id point, const std::string& wl) const {
    return runs_[cells_.at({point, wl})];
  }

  std::size_t unique_runs() const { return labels_.size(); }
  std::size_t cells() const { return cells_.size(); }

 private:
  /// A resolved configuration: workload, prefetcher, scheduler, CTA limit
  /// and eager wake-up.
  using Key = std::tuple<std::string, PrefetcherKind, SchedulerKind, u32, bool>;

  Id points_ = 0;
  std::map<Key, std::size_t> run_of_;
  std::vector<SweepJob> jobs_;       ///< [run], until run()
  std::vector<std::string> labels_;  ///< [run]: its first point's label
  std::map<std::pair<Id, std::string>, std::size_t> cells_;  ///< -> run
  std::vector<RunResult> runs_;      ///< [run], after run()
};

using Value = std::function<double(const RunResult& run,
                                   const RunResult& base)>;
using Format = std::string (*)(double);

std::string fixed1(double v) { return fmt_double(v, 1); }
std::string fixed3(double v) { return fmt_double(v, 3); }
std::string percent(double v) { return fmt_percent(v); }

/// One per-benchmark table column: `value` of each workload's run of
/// `point`, given that workload's BASE run.
struct Column {
  std::string header;
  ResultSet::Id point;
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

/// Render `p` over `workloads`: one row per workload (a failed run shows
/// its status in its cell), then the mean rows.
Table legend_table(const ResultSet& rs, ResultSet::Id base,
                   const std::vector<std::string>& workloads, const Panel& p) {
  std::vector<std::string> headers{"bench"};
  for (const Column& c : p.cols) headers.push_back(c.header);
  Table t(headers);
  // samples[mean row][column], in workload order.
  std::vector<std::vector<std::vector<double>>> samples(
      p.means.size(), std::vector<std::vector<double>>(p.cols.size()));

  for (const std::string& wl : workloads) {
    const RunResult& base_run = rs.at(base, wl);
    if (p.normalized && !base_run.ok()) {
      // Without a clean baseline nothing normalizes; keep the row visible.
      t.add_row({wl, base_run.outcome()});
      continue;
    }
    std::vector<std::string> row{wl};
    for (std::size_t c = 0; c < p.cols.size(); ++c) {
      const RunResult& r = rs.at(p.cols[c].point, wl);
      if (!r.ok()) {
        row.push_back(r.outcome());
        continue;
      }
      const double v = p.cols[c].value(r, base_run);
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

void print_table(const Table& t, const BenchArgs& args, const char* csv) {
  std::printf("%s\n", t.to_string().c_str());
  if (!args.csv.empty()) t.write_csv(args.csv + "." + csv + ".csv");
}

/// Fig. 1 from the load-issue trace of MM's BASE run.
void print_fig01(const LoadTraceCollector& collector, const BenchArgs& args) {
  std::printf("Fig. 1 — inter-warp stride prediction accuracy vs warp "
              "distance (matrixMul, two-level scheduler)\n\n");
  const Addr pc = collector.hottest_pc();
  const u32 wpc = find_workload("MM").kernel.warps_per_cta();
  const auto points = analyze_stride_distance(collector.events(), pc, 10);

  Table t({"distance", "accuracy", "gap_cycles", "pairs"});
  for (const StrideDistancePoint& p : points)
    t.add_row({std::to_string(p.distance), fmt_percent(p.accuracy),
               fmt_double(p.gap_cycles, 1), std::to_string(p.pairs)});
  print_table(t, args, "fig01");
  std::printf("Paper shape: high accuracy at short distances, steep drop at "
              "distance %u (CTA boundary: MM has %u warps/CTA); gap grows "
              "with distance.\n", wpc - 1, wpc);
}

/// Fig. 4: static and per-warp load analysis of every kernel of the suite.
void print_fig04(const BenchArgs& args) {
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
  print_table(t, args, "fig04");
  std::printf("Shape to check: most regular kernels have few or no "
              "in-loop loads (intra-warp prefetching starves); loop-heavy "
              "kernels (LPS, STE, HST, MM, KM) re-execute theirs.\n");
}

/// Tables I and II on the Table III machine.
void print_hardware_tables(const BenchArgs& args) {
  const GpuConfig cfg;
  const CapsHardwareCost cost = compute_caps_hardware_cost(cfg);

  std::printf("Table I — database entry size of the prefetcher\n\n");
  Table t1({"table", "fields", "total"});
  const PerCtaEntryLayout pe;
  const DistEntryLayout de;
  t1.add_row({"PerCTA",
              "PC (4B), leading warp id (1B), base address (4x4B)",
              std::to_string(pe.total()) + "B"});
  t1.add_row({"DIST", "PC (4B), stride (4B), mispredict counter (1B)",
              std::to_string(de.total()) + "B"});
  std::printf("%s\n", t1.to_string().c_str());

  std::printf("Table II — required hardware for tables (per SM)\n\n");
  Table t2({"table", "configuration", "total"});
  t2.add_row({"DIST",
              std::to_string(de.total()) + " bytes per entry, " +
                  std::to_string(cfg.caps.dist_entries) + " entries",
              std::to_string(cost.dist_bytes) + " bytes"});
  t2.add_row({"PerCTA",
              std::to_string(pe.total()) + " bytes per entry, " +
                  std::to_string(cfg.caps.percta_entries) + " entries, " +
                  std::to_string(cfg.max_ctas_per_sm) + " CTAs",
              std::to_string(cost.percta_bytes) + " bytes"});
  t2.add_row({"total", "", std::to_string(cost.total_bytes) + " bytes"});
  print_table(t2, args, "tab2");

  std::printf("Synthesis estimates (Section V-D, used by the Fig. 15 energy "
              "model):\n");
  std::printf("  area            : %.3f mm^2 (%.2f%% of a %.0f mm^2 SM)\n",
              cost.area_mm2, 100.0 * cost.area_fraction_of_sm(),
              cost.sm_area_mm2);
  std::printf("  energy/access   : %.2f pJ\n", cost.energy_per_access_pj);
  std::printf("  static power    : %.0f uW\n", cost.static_power_uw);
  std::printf("\nExpected: 21B/9B entries, 36 + 672 = 708 bytes per SM.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> workloads = fig10_workloads(args.quick);
  // The note of a title whose figure runs on the --quick subset.
  const char* const subset = args.quick ? " (--quick subset)" : "";
  // The full Fig. 11 sweep is long; it defaults to a representative half of
  // the suite unless --full is given.
  const std::vector<std::string> cta_workloads =
      args.quick || args.full
          ? workloads
          : std::vector<std::string>{"CP", "LPS", "HSP", "STE", "CNV", "MM",
                                     "SCN", "BFS"};
  const char* const cta_subset =
      args.quick || args.full ? subset : " [subset; --full for all]";

  // The evaluation: every point of every panel, before anything runs.
  ResultSet rs;
  // BASE, then the Fig. 10 legend, each with the scheduler the paper pairs
  // it with.
  std::vector<PrefetcherKind> kinds{PrefetcherKind::kNone};
  kinds.insert(kinds.end(), prefetcher_legend().begin(),
               prefetcher_legend().end());
  std::vector<ResultSet::Id> legend;  // Figs. 10, 12, 13 and 15, [kind]
  for (PrefetcherKind pf : kinds)
    legend.push_back(rs.add({.pf = pf}, workloads));
  // Fig. 1 reads the load-issue trace of the BASE run on MM (in every
  // workload list).
  LoadTraceCollector fig01_trace;
  rs.trace(legend[0], "MM", fig01_trace.sink());

  const std::vector<u32> cta_limits{1, 2, 4, 8};
  std::vector<std::vector<ResultSet::Id>> cta_grid;  // Fig. 11, [limit][kind]
  for (u32 ctas : cta_limits) {
    std::vector<ResultSet::Id>& row = cta_grid.emplace_back();
    for (PrefetcherKind pf : kinds)
      row.push_back(
          rs.add({.pf = pf, .max_ctas_per_sm = ctas}, cta_workloads));
  }

  const Point early_points[] = {
      {.pf = PrefetcherKind::kIntra},
      {.pf = PrefetcherKind::kInter},
      {.pf = PrefetcherKind::kMta},
      {.pf = PrefetcherKind::kCaps},
      {.pf = PrefetcherKind::kCaps, .eager_wakeup = false},
  };
  std::vector<ResultSet::Id> early;  // Fig. 14a
  for (const Point& p : early_points) early.push_back(rs.add(p, workloads));

  const std::pair<const char*, SchedulerKind> distance_scheds[] = {
      {"LRR", SchedulerKind::kLrr},
      {"TLV", SchedulerKind::kTwoLevel},
      {"PA-TLV (PAS)", SchedulerKind::kPas},
  };
  std::vector<ResultSet::Id> distance;  // Fig. 14b
  for (const auto& [header, sched] : distance_scheds)
    distance.push_back(
        rs.add({.pf = PrefetcherKind::kCaps, .scheduler = sched}, workloads));

  rs.run();

  print_fig01(fig01_trace, args);
  print_fig04(args);

  // Figs. 10, 12, 13 and 15: one row per benchmark.
  const auto irregular = [](const std::string& wl) {
    return find_workload(wl).irregular;
  };
  std::vector<MeanRow> ipc_means{{"Mean(all)", any_workload}};
  if (!args.quick) {
    ipc_means.insert(
        ipc_means.begin(),
        {{"Mean(reg)", [&](const std::string& wl) { return !irregular(wl); }},
         {"Mean(irreg)", irregular}});
  }

  // The seven Fig. 10 prefetchers as columns of `value`.
  const auto legend_columns = [&](const Value& value, Format fmt) {
    std::vector<Column> cols;
    for (std::size_t k = 1; k < kinds.size(); ++k)
      cols.push_back({to_string(kinds[k]), legend[k], value, fmt});
    return cols;
  };

  const EnergyModel model;
  const GpuConfig cfg;
  const ResultSet::Id caps = legend.back();  // CAPS is last
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
                          return s.core_requests();
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
         {{"baseline (uJ)", legend[0], base_uj, fixed1, false},
          {"CAPS (uJ)", caps, caps_uj, fixed1, false},
          {"normalized", caps,
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
    std::printf("%s%s\n\n", f.title, subset);
    for (const Panel& p : f.panels) {
      if (p.label != nullptr) std::printf("(%s)\n", p.label);
      print_table(legend_table(rs, legend[0], workloads, p), args, p.csv);
    }
    std::printf("%s\n", f.shape);
  }

  // Fig. 11: the geometric mean over its workloads of IPC normalized to each
  // workload's 8-CTA BASE run. A workload whose baseline failed is left out
  // of every row.
  std::printf("Fig. 11 — mean IPC by concurrent CTAs/SM (normalized to the "
              "8-CTA baseline)%s\n\n",
              cta_subset);
  {
    std::vector<std::string> headers{"CTAs/SM"};
    for (PrefetcherKind pf : kinds) headers.emplace_back(to_string(pf));
    Table t(headers);
    const ResultSet::Id base8 = cta_grid.back().front();
    for (std::size_t l = 0; l < cta_limits.size(); ++l) {
      std::vector<std::string> row{std::to_string(cta_limits[l])};
      for (ResultSet::Id point : cta_grid[l]) {
        std::vector<double> norms;
        for (const std::string& wl : cta_workloads) {
          const RunResult& base = rs.at(base8, wl);
          const RunResult& r = rs.at(point, wl);
          if (base.ok() && r.ok())
            norms.push_back(r.stats.ipc() / base.stats.ipc());
        }
        row.push_back(fmt_double(geo_mean(norms), 3));
      }
      t.add_row(row);
    }
    print_table(t, args, "fig11");
    std::printf("Paper shape: every 1-CTA configuration is far below the "
                "8-CTA baseline (cutting CTAs never pays); INTRA/MTA are "
                "relatively best at 1 CTA; CAPS pulls ahead as the CTA count "
                "grows.\n");
  }

  std::printf("Fig. 14a — early prefetch ratio (evicted before use)%s\n\n",
              subset);
  {
    Table t({"config", "early ratio (mean)"});
    for (std::size_t i = 0; i < early.size(); ++i) {
      std::vector<double> ratios;
      for (const std::string& wl : workloads) {
        const RunResult& r = rs.at(early[i], wl);
        if (r.ok() && r.stats.sm.pf_issued_to_mem > 0)
          ratios.push_back(r.stats.pf_early_ratio());
      }
      t.add_row({label(early_points[i]), fmt_percent(arith_mean(ratios), 2)});
    }
    print_table(t, args, "fig14a");
    std::printf("Paper shape: CAPS ~0.91%%, slightly higher without the "
                "wake-up (~1.16%%); INTRA/INTER/MTA are markedly worse.\n\n");
  }

  std::printf("Fig. 14b — prefetch distance of timely prefetches by "
              "scheduler (CAPS engine)%s\n\n", subset);
  {
    Table t({"scheduler", "avg distance (cycles)", "useful prefetches"});
    for (std::size_t i = 0; i < distance.size(); ++i) {
      RunningStat agg;
      for (const std::string& wl : workloads) {
        const RunResult& r = rs.at(distance[i], wl);
        if (r.ok()) agg.merge(r.stats.sm.pf_distance);
      }
      t.add_row({distance_scheds[i].first, fmt_double(agg.mean(), 1),
                 std::to_string(agg.count())});
    }
    print_table(t, args, "fig14b");
    std::printf("Paper shape: LRR 64.3 < TLV 145.0 < PA-TLV 172.7 cycles — "
                "the prefetch-aware scheduler buys the largest lead time.\n");
  }

  print_hardware_tables(args);

  // Last, after every table and CSV: the smoke ctest matches this line.
  std::fprintf(stderr, "%zu unique runs for %zu cells\n", rs.unique_runs(),
               rs.cells());
  return 0;
}
