// Tests of the benchmark's own C++ half: the timing decorators must not
// change what is simulated, and the seed must only permute submission order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "layer_timing.hpp"
#include "sweep_order.hpp"

using namespace caps;
using namespace caps::perfbench;

namespace {

// CP and SCN are the two cheapest kernels of the suite.
const std::vector<std::string> kSmallKernels{"CP", "SCN"};

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

}  // namespace

TEST(LayerTiming, TracedRunMatchesUntracedSignature) {
  const std::vector<RunConfig> cfgs = fig10_configs({"CP"});
  const std::vector<RunResult> plain = run_sweep(cfgs);
  // Two workers, as fig10-parallel's traced run executes them.
  const std::vector<TracedRun> traced =
      parallel_ordered_map(cfgs, run_traced, {2});
  ASSERT_EQ(plain.size(), cfgs.size());
  ASSERT_EQ(traced.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const TracedRun& t = traced[i];
    SCOPED_TRACE(to_string(cfgs[i].prefetcher));
    ASSERT_TRUE(plain[i].ok());
    ASSERT_TRUE(t.ok) << t.error;
    EXPECT_EQ(t.scheduler_used, plain[i].scheduler_used);
    EXPECT_EQ(stats_signature(t.stats), stats_signature(plain[i].stats));
    // The decorators saw the calls they time.
    EXPECT_GT(t.clock.pick_calls, 0u);
    EXPECT_GT(t.clock.prefetch_calls, 0u);
    EXPECT_GT(t.step_s, 0.0);
    EXPECT_LE(static_cast<double>(t.clock.sched_ns + t.clock.prefetch_ns) * 1e-9,
              t.step_s);
  }
}

TEST(LayerTiming, FailedConfigIsReportedNotThrown) {
  RunConfig rc;
  rc.workload = "no-such-kernel";
  const TracedRun t = run_traced(rc);
  EXPECT_FALSE(t.ok);
  EXPECT_FALSE(t.error.empty());
}

TEST(SweepOrder, PermutationIsABijectionThatDependsOnTheSeed) {
  const std::size_t n = 128;
  const std::vector<std::size_t> a = permutation(1, 0, n);
  const std::vector<std::size_t> b = permutation(2, 0, n);
  std::vector<std::size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, iota(n));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, permutation(1, 0, n));
  EXPECT_NE(a, permutation(1, 1, n));
}

TEST(SweepOrder, ResultsDoNotDependOnSeedOrWorkerCount) {
  const std::vector<RunConfig> cfgs = fig10_configs(kSmallKernels);
  const std::vector<std::size_t> all = iota(cfgs.size());
  const std::string canonical = sweep_signature(run_sweep(cfgs, {1}));
  EXPECT_EQ(sweep_signature(
                run_in_order(cfgs, all, permutation(7, 0, all.size()), 1)),
            canonical);
  EXPECT_EQ(sweep_signature(
                run_in_order(cfgs, all, permutation(8, 0, all.size()), 2)),
            canonical);
}

TEST(SweepOrder, SubsetResultsFollowTheIndexList) {
  const std::vector<RunConfig> cfgs = fig10_configs(kSmallKernels);
  const std::vector<std::size_t> idx{9, 2, 15};
  const std::vector<RunResult> r =
      run_in_order(cfgs, idx, permutation(3, 0, idx.size()), 1);
  ASSERT_EQ(r.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(r[i].cfg.workload, cfgs[idx[i]].workload);
    EXPECT_EQ(r[i].cfg.prefetcher, cfgs[idx[i]].prefetcher);
  }
}
