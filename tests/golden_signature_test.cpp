// Golden determinism gate: every run of the quick Fig. 10 matrix (MM, LPS,
// CNV, BFS under BASE + the seven prefetchers) must reproduce the committed
// FNV-1a digest of its sweep_signature entry, which covers every counter
// and the exact bits of every RunningStat. A refactor that claims to change
// no simulation output is checked against this file.
//
// On a mismatch the test prints the whole expected file as it should now
// read; when a change of output is intended, paste that block over
// tests/golden/quick_matrix.digests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

namespace caps {
namespace {

std::string fnv1a_hex(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

constexpr const char* kHeader =
    "# FNV-1a digest of each run's sweep_signature entry, quick Fig. 10 "
    "matrix.\n# Checked by tests/golden_signature_test.cpp.\n";

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

TEST(GoldenSignatureTest, QuickMatrixMatchesCommittedDigests) {
  std::vector<RunConfig> cfgs;
  for (const char* wl : {"MM", "LPS", "CNV", "BFS"}) {
    RunConfig rc;
    rc.workload = wl;
    cfgs.push_back(rc);
    for (PrefetcherKind pf : prefetcher_legend()) {
      rc.prefetcher = pf;
      cfgs.push_back(rc);
    }
  }
  const std::vector<RunResult> results = run_sweep(std::move(cfgs));
  const std::map<std::string, std::string> golden =
      read_golden(CAPSIM_GOLDEN_DIGESTS);

  std::ostringstream regenerated;
  regenerated << kHeader;
  std::ostringstream diffs;
  u32 mismatches = 0;
  for (const RunResult& r : results) {
    const std::string name = run_name(r);
    const std::string actual = fnv1a_hex(sweep_signature({r}));
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
      << diffs.str() << "\nIf the change is intended, "
      << CAPSIM_GOLDEN_DIGESTS << " should read:\n"
      << regenerated.str();
}

}  // namespace
}  // namespace caps
