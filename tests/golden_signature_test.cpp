// Golden determinism gates: every run of a Fig. 10 matrix (workloads under
// BASE + the seven prefetchers) must reproduce its committed
// signature_digest (FNV-1a of its sweep_signature entry, which capsim-bench
// reports too). The signature covers every counter and the exact
// bits of every RunningStat. A refactor that claims to change no
// simulation output is checked against these files:
//   - tests/golden/quick_matrix.digests: MM, LPS, CNV, BFS (32 runs);
//   - tests/golden/full_matrix.digests: all 16 workloads (128 runs).
// CMake registers each matrix as its own ctest entry so `ctest -j` runs
// them side by side.
//
// On a mismatch the test prints the whole expected file as it should now
// read; when a change of output is intended, paste that block over the
// digest file it names.
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

/// Runs `workloads` x (BASE + legend) and compares each run's digest with
/// `<CAPSIM_GOLDEN_DIR>/<matrix>_matrix.digests`.
void expect_matrix_matches_golden(const std::vector<std::string>& workloads,
                                  const std::string& matrix) {
  const std::vector<RunResult> results = run_sweep(fig10_matrix(workloads));
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
    const std::string name = run_name(r);
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

TEST(GoldenSignatureTest, QuickMatrixMatchesCommittedDigests) {
  expect_matrix_matches_golden(fig10_workloads(/*quick=*/true), "quick");
}

TEST(GoldenSignatureTest, FullMatrixMatchesCommittedDigests) {
  expect_matrix_matches_golden(fig10_workloads(/*quick=*/false), "full");
}

}  // namespace
}  // namespace caps
