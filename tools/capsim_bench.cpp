// capsim-bench: perf-regression harness (DESIGN.md §13).
//
// Times a canonical sweep — the Fig. 10 experiment matrix (every workload
// under BASE + the seven prefetchers; --quick restricts to the four-bench
// smoke subset) — through the parallel sweep executor and emits a JSON
// report: wall-clock, simulated cycles per second, thread count, and a
// per-run breakdown. CI runs `capsim-bench --quick` and gates on a >2x
// wall-clock regression against the committed BENCH_seed.json via
// tools/bench_compare.py; the simulated cycle counts and signature digests
// in the report are machine-independent, so the comparison also catches
// determinism drift.
//
// Usage:
//   capsim-bench [--quick] [--threads N] [--serial] [--tag TAG] [--out FILE]
//
//   --quick      four-workload smoke subset (the CI leg)
//   --threads N  executor worker count (default: one per hardware thread)
//   --serial     alias for --threads 1 (single-worker baseline timing)
//   --tag TAG    tag recorded in the report (default "local")
//   --out FILE   output path (default "BENCH_<tag>.json")
//
// Exit status: 0 when every run finished clean, 1 otherwise.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

using namespace caps;

int main(int argc, char** argv) {
  bool quick = false;
  u32 threads = 0;
  std::string tag = "local";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--serial") {
      threads = 1;
    } else if (a == "--threads" && i + 1 < argc) {
      threads = static_cast<u32>(std::atoi(argv[++i]));
    } else if (a == "--tag" && i + 1 < argc) {
      tag = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: capsim-bench [--quick] [--threads N] [--serial] "
                   "[--tag TAG] [--out FILE]\n");
      return 2;
    }
  }
  if (out_path.empty()) out_path = "BENCH_" + tag + ".json";

  // The canonical sweep: Fig. 10 matrix order (workload-major, BASE + the
  // seven-prefetcher legend per workload).
  std::vector<RunConfig> cfgs = fig10_matrix(fig10_workloads(quick));

  const u32 resolved = resolve_sweep_threads(threads, cfgs.size());
  std::fprintf(stderr, "capsim-bench: %zu runs (%s) on %u thread(s)...\n",
               cfgs.size(), quick ? "quick" : "full", resolved);

  const auto t0 = std::chrono::steady_clock::now();
  SweepOptions opt;
  opt.threads = resolved;
  const std::vector<RunResult> runs = run_sweep(std::move(cfgs), opt);
  const auto t1 = std::chrono::steady_clock::now();
  const double total_wall = std::chrono::duration<double>(t1 - t0).count();

  u64 total_cycles = 0;
  u64 total_instructions = 0;
  u32 failed = 0;
  for (const RunResult& r : runs) {
    total_cycles += r.stats.cycles;
    total_instructions += r.stats.sm.issued_instructions;
    if (!r.ok()) {
      ++failed;
      std::fprintf(stderr, "  FAIL %s/%s: %s — %s\n", r.cfg.workload.c_str(),
                   to_string(r.cfg.prefetcher), r.outcome(),
                   r.error.c_str());
    }
  }
  const double cycles_per_sec =
      total_wall > 0 ? static_cast<double>(total_cycles) / total_wall : 0.0;

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "capsim-bench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  os << "{\n";
  os << "  \"tag\": \"" << analysis::json_escape(tag) << "\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"threads\": " << resolved << ",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n";
  os << "  \"runs\": " << runs.size() << ",\n";
  os << "  \"failed_runs\": " << failed << ",\n";
  os << "  \"total_sim_cycles\": " << total_cycles << ",\n";
  os << "  \"total_instructions\": " << total_instructions << ",\n";
  os << "  \"total_wall_seconds\": " << total_wall << ",\n";
  os << "  \"sim_cycles_per_sec\": " << cycles_per_sec << ",\n";
  os << "  \"runs_detail\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    os << "    {\"workload\": \"" << analysis::json_escape(r.cfg.workload)
       << "\", \"prefetcher\": \"" << to_string(r.cfg.prefetcher)
       << "\", \"scheduler\": \"" << to_string(r.scheduler_used)
       << "\", \"status\": \"" << to_string(r.status)
       << "\", \"cycles\": " << r.stats.cycles
       << ", \"instructions\": " << r.stats.sm.issued_instructions
       << ", \"digest\": \"" << signature_digest(r)
       << "\", \"wall_seconds\": " << r.wall_seconds << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  os.close();

  std::fprintf(stderr,
               "capsim-bench: %zu runs, %u failed, %.2fs wall, "
               "%.3g sim cycles/sec -> %s\n",
               runs.size(), failed, total_wall, cycles_per_sec,
               out_path.c_str());
  return failed == 0 ? 0 : 1;
}
