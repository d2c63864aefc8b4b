// capsim-analyze: static kernel-IR load classification, schedule advising,
// and oracle cross-checking over the Table IV workload suite (DESIGN.md
// §11-§12).
//
// Modes:
//   capsim-analyze                   text report, all 16 kernels: the load
//                                    table, then the schedule advice
//                                    (leading warp, discovery order,
//                                    prefetch distances, timeliness)
//   capsim-analyze --kernel MM       one kernel
//   capsim-analyze --json            deterministic JSON instead of text
//   capsim-analyze --check           run each kernel under CAPS+PAS and
//                                    PAS-GTO and diff runtime DIST strides,
//                                    leading-warp bases, exclusion counters,
//                                    markers, discovery order, eager
//                                    wake-ups and timeliness against the
//                                    static predictions
//   capsim-analyze --check --inject-divergence
//                                    negative fixture: skew the prefetcher
//                                    predictions so --check MUST fail
//   capsim-analyze --check --inject-schedule-divergence
//                                    negative fixture for the schedule
//                                    cross-check
//
// Exit codes: 0 = clean, 1 = divergence / simulation failure under --check,
// 2 = usage or configuration error.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "harness/oracle.hpp"
#include "harness/sweep.hpp"
#include "workloads/workload.hpp"

using namespace caps;

namespace {

struct Options {
  bool check = false;
  bool inject_divergence = false;
  bool inject_schedule_divergence = false;
  bool json = false;
  std::string kernel;  ///< empty = whole suite
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: capsim-analyze [--kernel ABBR] [--json] [--check]\n"
               "                      [--inject-divergence] "
               "[--inject-schedule-divergence]\n"
               "  --kernel ABBR        analyze one Table IV workload "
               "(default: all 16)\n"
               "  --json               emit deterministic JSON instead of "
               "text\n"
               "  --check              cross-check the runtime prefetcher and "
               "schedulers against the\n"
               "                       static predictions\n"
               "  --inject-divergence  (with --check) skew the prefetcher "
               "predictions so the check\n"
               "                       must fail\n"
               "  --inject-schedule-divergence\n"
               "                       (with --check) skew the schedule "
               "predictions so the check\n"
               "                       must fail\n");
}

std::vector<const Workload*> select(const std::string& kernel) {
  std::vector<const Workload*> out;
  if (kernel.empty()) {
    for (const Workload& w : workload_suite()) out.push_back(&w);
  } else {
    out.push_back(&find_workload(kernel));
  }
  return out;
}

int report_mode(const Options& opt) {
  const auto selected = select(opt.kernel);
  if (opt.json) std::printf("[");
  bool first = true;
  for (const Workload* w : selected) {
    const analysis::KernelAnalysis ka = analysis::analyze_kernel(w->kernel);
    const analysis::ScheduleAdvice adv =
        analysis::advise_schedule(w->kernel, ka);
    if (opt.json) {
      std::printf("%s{\"analysis\":%s,\"schedule\":%s}", first ? "" : ",\n",
                  analysis::json_report(ka).c_str(),
                  analysis::json_schedule_report(adv).c_str());
    } else {
      std::printf("%s%s%s", first ? "" : "\n",
                  analysis::text_report(ka).c_str(),
                  analysis::text_schedule_report(adv).c_str());
    }
    first = false;
  }
  if (opt.json) std::printf("]\n");
  return 0;
}

/// Print one cross-check section as an OK line (`ok_line`) or a FAIL line
/// with its divergences, then its notes. Returns whether it was clean.
bool print_section(const std::string& workload, const char* label,
                   const OracleSection& s, const std::string& ok_line) {
  if (s.ok()) {
    std::printf("[ OK ] %-4s %s%s\n", workload.c_str(), label,
                ok_line.c_str());
  } else {
    const std::string why =
        s.status == RunStatus::kOk
            ? std::to_string(s.divergences.size()) + " divergence(s)"
            : std::string(to_string(s.status)) + ": " + s.error;
    std::printf("[FAIL] %-4s %s%s\n", workload.c_str(), label, why.c_str());
    for (const OracleDivergence& d : s.divergences)
      std::printf("       %-26s %s\n", d.kind.c_str(), d.detail.c_str());
  }
  for (const std::string& n : s.notes)
    std::printf("       note: %s\n", n.c_str());
  return s.ok();
}

int check_mode(const Options& opt) {
  OracleOptions oracle_opt;
  oracle_opt.inject_divergence = opt.inject_divergence;
  oracle_opt.inject_schedule_divergence = opt.inject_schedule_divergence;

  // The workloads run on the sweep executor; sections print in suite order.
  const std::vector<OracleResult> results = parallel_ordered_map(
      select(opt.kernel),
      [&oracle_opt](const Workload* w) { return cross_check(*w, oracle_opt); });
  u32 checks = 0, failed = 0;
  for (const OracleResult& r : results) {
    const std::string prefetch_ok =
        std::to_string(r.analysis.loads.size()) + " loads, " +
        std::to_string(r.analysis.num_prefetchable()) +
        " prefetchable, DIST valid " +
        std::to_string(r.analysis.predicted_dist_valid);
    const std::string schedule_ok =
        "leading warp " + std::to_string(r.advice.predicted_leading_warp) +
        ", wave " + std::to_string(r.advice.initial_wave_ctas) + " CTAs, " +
        std::to_string(r.advice.pcs.size()) + " PC(s) classified";
    checks += 2;
    if (!print_section(r.workload, "", r.prefetch, prefetch_ok)) ++failed;
    if (!print_section(r.workload, "schedule: ", r.schedule, schedule_ok))
      ++failed;
  }
  std::printf("%u/%u checks clean\n", checks - failed, checks);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      opt.check = true;
    } else if (a == "--inject-divergence") {
      opt.inject_divergence = true;
    } else if (a == "--inject-schedule-divergence") {
      opt.inject_schedule_divergence = true;
    } else if (a == "--json") {
      opt.json = true;
    } else if (a == "--kernel") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "capsim-analyze: --kernel needs an argument\n");
        usage(stderr);
        return 2;
      }
      opt.kernel = argv[++i];
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "capsim-analyze: unknown option '%s'\n", a.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (opt.inject_divergence && !opt.check) {
    std::fprintf(stderr,
                 "capsim-analyze: --inject-divergence requires --check\n");
    return 2;
  }
  if (opt.inject_schedule_divergence && !opt.check) {
    std::fprintf(
        stderr,
        "capsim-analyze: --inject-schedule-divergence requires --check\n");
    return 2;
  }

  try {
    return opt.check ? check_mode(opt) : report_mode(opt);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "capsim-analyze: unknown workload '%s'\n",
                 opt.kernel.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capsim-analyze: %s\n", e.what());
    return 2;
  }
}
