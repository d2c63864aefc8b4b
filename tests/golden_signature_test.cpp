// Golden determinism gates: every run of a Fig. 10 matrix (workloads under
// BASE + the seven prefetchers) must reproduce its committed
// signature_digest (FNV-1a of its sweep_signature entry, which capsim-bench
// reports too). The signature covers every counter and the exact
// bits of every RunningStat. A refactor that claims to change no
// simulation output is checked against these files:
//   - tests/golden/full_matrix.digests: all 16 workloads (128 runs);
//   - tests/golden/stress_matrix.digests: MM, SCN, BFS, LPS off the
//     defaults (ready queue of 1 and 2, single issue, two CTAs per SM,
//     a capped cycle budget) under BASE, the legend and CAPS without
//     eager wake-up (72 runs). Tiny queues make every demotion,
//     promotion, forced demotion and barrier release of the two-level
//     schedulers decide the schedule.
// CMake registers each matrix as its own ctest entry so `ctest -j` runs
// them side by side.
//
// On a mismatch each gate prints the whole expected file as it should now
// read; when a change of output is intended, paste that block
// over the digest file it names.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

namespace caps {
namespace {

std::string run_name(const RunResult& r) {
  return r.cfg.workload + "/" + to_string(r.cfg.prefetcher);
}

/// Stress runs also name their ready-queue size and the eager wake-up.
std::string stress_run_name(const RunResult& r) {
  return r.cfg.workload + "/rq" + std::to_string(r.cfg.base.ready_queue_size) +
         "/" + to_string(r.cfg.prefetcher) +
         (r.cfg.caps_eager_wakeup ? "" : "-noeager");
}

std::vector<RunConfig> stress_matrix() {
  std::vector<RunConfig> out;
  for (const u32 rq : {1u, 2u}) {
    std::vector<RunConfig> m = fig10_matrix({"MM", "SCN", "BFS", "LPS"});
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m[i].prefetcher != PrefetcherKind::kCaps) continue;
      RunConfig lazy = m[i];
      lazy.caps_eager_wakeup = false;
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(++i), lazy);
    }
    for (RunConfig& c : m) {
      c.base.ready_queue_size = rq;
      c.base.issue_width = 1;
      c.max_ctas_per_sm = 2;
      c.max_cycles = 60'000;
    }
    out.insert(out.end(), m.begin(), m.end());
  }
  return out;
}

/// `name digest` per non-blank, non-comment line.
std::map<std::string, std::string> read_golden(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest;
    ls >> name >> digest;
    out[name] = digest;
  }
  return out;
}

/// Runs `configs` and compares each run's digest, keyed by `name`, with
/// `<CAPSIM_GOLDEN_DIR>/<matrix>_matrix.digests`; the runs must also cover
/// every line of the file.
void expect_matrix_matches_golden(
    const std::vector<RunConfig>& configs, const std::string& matrix,
    std::string (*name_of)(const RunResult&) = run_name) {
  const std::vector<RunResult> results = run_sweep(configs);
  const std::string path =
      std::string(CAPSIM_GOLDEN_DIR) + "/" + matrix + "_matrix.digests";
  const std::map<std::string, std::string> golden = read_golden(path);

  std::ostringstream regenerated;
  regenerated << "# FNV-1a digest of each run's sweep_signature entry, "
              << matrix << " Fig. 10 matrix.\n"
              << "# Checked by tests/golden_signature_test.cpp.\n";
  std::ostringstream diffs;
  u32 mismatches = 0;
  for (const RunResult& r : results) {
    const std::string name = name_of(r);
    const std::string actual = signature_digest(r);
    regenerated << name << ' ' << actual << '\n';
    const auto it = golden.find(name);
    const std::string expected = it == golden.end() ? "<missing>" : it->second;
    if (expected != actual) {
      ++mismatches;
      diffs << "  " << name << "  expected " << expected << "  actual "
            << actual << '\n';
    }
  }
  EXPECT_EQ(golden.size(), results.size()) << "golden file run count";
  EXPECT_EQ(mismatches, 0u)
      << "runs whose signature digest changed:\n"
      << diffs.str() << "\nIf the change is intended, " << path
      << " should read:\n"
      << regenerated.str();
}

TEST(GoldenSignatureTest, FullMatrixMatchesCommittedDigests) {
  expect_matrix_matches_golden(fig10_matrix(fig10_workloads(/*quick=*/false)),
                               "full");
}

TEST(GoldenSignatureTest, StressMatrixMatchesCommittedDigests) {
  expect_matrix_matches_golden(stress_matrix(), "stress", stress_run_name);
}

}  // namespace
}  // namespace caps
