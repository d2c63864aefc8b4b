// Figure 14: timeliness of prefetching.
//  (a) early-prefetch ratio (prefetched lines evicted before use) for
//      INTRA/INTER/MTA/CAPS and CAPS without the eager wake-up;
//  (b) prefetch distance (cycles between prefetch issue and the consuming
//      demand) when CAPS runs on LRR, plain two-level, and PAS.
#include <cstdio>
#include <iterator>

#include "common.hpp"
#include "harness/tables.hpp"

using namespace caps;
using namespace caps::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const auto workloads = fig10_workloads(args.quick);

  std::printf("Fig. 14a — early prefetch ratio (evicted before use)%s\n\n",
              args.quick ? " (--quick subset)" : "");
  {
    struct Cfg {
      const char* label;
      PrefetcherKind pf;
      bool wakeup;
    };
    const Cfg cfgs[] = {
        {"INTRA", PrefetcherKind::kIntra, true},
        {"INTER", PrefetcherKind::kInter, true},
        {"MTA", PrefetcherKind::kMta, true},
        {"CAPS", PrefetcherKind::kCaps, true},
        {"CAPS w/o Wakeup", PrefetcherKind::kCaps, false},
    };
    Table t({"config", "early ratio (mean)"});
    // One flattened sweep over {config} x {workload}, consumed per config.
    std::vector<RunConfig> sweep;
    sweep.reserve(std::size(cfgs) * workloads.size());
    for (const Cfg& c : cfgs) {
      for (const std::string& wl : workloads) {
        RunConfig rc;
        rc.workload = wl;
        rc.prefetcher = c.pf;
        rc.caps_eager_wakeup = c.wakeup;
        sweep.push_back(std::move(rc));
      }
    }
    std::fprintf(stderr, "  running %zu configurations...\n", sweep.size());
    const std::vector<RunResult> runs = run_sweep(std::move(sweep));
    std::size_t cursor = 0;
    for (const Cfg& c : cfgs) {
      std::vector<double> ratios;
      for (std::size_t i = 0; i < workloads.size(); ++i) {
        const RunResult& r = runs[cursor++];
        if (!usable(r)) continue;
        if (r.stats.sm.pf_issued_to_mem > 0)
          ratios.push_back(r.stats.pf_early_ratio());
      }
      t.add_row({c.label, fmt_percent(arith_mean(ratios), 2)});
    }
    std::printf("%s\n", t.to_string().c_str());
    std::printf("Paper shape: CAPS ~0.91%%, slightly higher without the "
                "wake-up (~1.16%%); INTRA/INTER/MTA are markedly worse.\n\n");
    if (!args.csv.empty()) t.write_csv(args.csv + ".fig14a.csv");
  }

  std::printf("Fig. 14b — prefetch distance of timely prefetches by "
              "scheduler (CAPS engine)\n\n");
  {
    struct Sched {
      const char* label;
      SchedulerKind kind;
    };
    const Sched scheds[] = {
        {"LRR", SchedulerKind::kLrr},
        {"TLV", SchedulerKind::kTwoLevel},
        {"PA-TLV (PAS)", SchedulerKind::kPas},
    };
    Table t({"scheduler", "avg distance (cycles)", "useful prefetches"});
    std::vector<RunConfig> sweep;
    sweep.reserve(std::size(scheds) * workloads.size());
    for (const Sched& s : scheds) {
      for (const std::string& wl : workloads) {
        RunConfig rc;
        rc.workload = wl;
        rc.prefetcher = PrefetcherKind::kCaps;
        rc.scheduler = s.kind;
        sweep.push_back(std::move(rc));
      }
    }
    std::fprintf(stderr, "  running %zu configurations...\n", sweep.size());
    const std::vector<RunResult> runs = run_sweep(std::move(sweep));
    std::size_t cursor = 0;
    for (const Sched& s : scheds) {
      RunningStat agg;
      for (std::size_t i = 0; i < workloads.size(); ++i) {
        const RunResult& r = runs[cursor++];
        if (!usable(r)) continue;
        agg.merge(r.stats.sm.pf_distance);
      }
      t.add_row({s.label, fmt_double(agg.mean(), 1),
                 std::to_string(agg.count())});
    }
    std::printf("%s\n", t.to_string().c_str());
    std::printf("Paper shape: LRR 64.3 < TLV 145.0 < PA-TLV 172.7 cycles — "
                "the prefetch-aware scheduler buys the largest lead time.\n");
    if (!args.csv.empty()) t.write_csv(args.csv + ".fig14b.csv");
  }
  return 0;
}
