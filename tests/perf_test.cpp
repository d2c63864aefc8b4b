// Allocation tests (DESIGN.md §13). Building the Table III machine stays
// within a fixed number of allocations, and a run, from its first step to
// its end, performs zero heap allocations, in every Fig. 10 configuration
// and on a machine whose queues are smaller than their structural bounds.
// Every hot-path container — scheduler queues, LD/ST queues, MSHR slots,
// crossbar/L2/DRAM queues, per-warp loop counters, coalescer and prefetch
// scratch, prefetcher tables — is sized at construction, so any allocation
// while the machine steps is a de-allocation regression, first-use growth
// included.
//
// The global operator new/delete are replaced with counting versions; only
// the delta across the measured span is asserted (gtest and the fixture
// setup allocate freely outside it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "harness/experiment.hpp"
#include "workloads/workload.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace caps {
namespace {

/// The machine the run tests step: two SMs, and with `small_queues` an
/// LD/ST queue shorter than the L1 hit latency and a DRAM queue shorter
/// than the bank count, so that no ring's bound is its queue's size.
GpuConfig alloc_test_machine(bool small_queues) {
  GpuConfig cfg;
  cfg.num_sms = 2;
  if (small_queues) {
    cfg.ldst_queue_size = 8;  // below the 28-cycle L1 hit latency
    cfg.dram_queue_size = 4;  // below the 16 DRAM banks
  }
  return cfg;
}

void expect_run_allocation_free(const std::string& wl, PrefetcherKind pf,
                                bool small_queues) {
  const GpuConfig cfg = alloc_test_machine(small_queues);
  Gpu gpu(cfg, find_workload(wl).kernel,
          make_policies(pf, default_scheduler_for(pf),
                        /*caps_eager_wakeup=*/true));

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  while (!gpu.done() && gpu.now() < cfg.max_cycles) gpu.step();
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  ASSERT_TRUE(gpu.done()) << wl << " hit the cycle limit";
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocation(s) in a " << gpu.now()
      << "-cycle run (" << wl << '/' << to_string(pf)
      << (small_queues ? ", small queues" : "") << ')';
}

/// operator new calls while one Table III machine is built, the way the
/// harness builds it once per run.
std::uint64_t build_allocations(const char* wl, PrefetcherKind pf,
                                SchedulerKind sched) {
  const GpuConfig cfg;
  const Kernel& kernel = find_workload(wl).kernel;
  const SmPolicyFactories policies = make_policies(pf, sched, true);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const Gpu gpu(cfg, kernel, policies);
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

// A build allocates each component's storage once: one waiter array per
// MSHR, a tag, stamp and metadata array per cache, one ring per queue and
// one slot array per prefetcher table (DESIGN.md §13). The ceilings are the
// counts that design reaches; per-slot waiter vectors, per-entry base
// vectors and per-call message strings made them 2,514 and 1,629, and
// split key/stamp/entry/base arrays per PerCTA table made the first 1,112.
TEST(BuildAllocTest, TableIIIMachineBuildStaysWithinItsAllocations) {
  EXPECT_LE(build_allocations("BFS", PrefetcherKind::kCaps, SchedulerKind::kPas),
            752u);
  EXPECT_LE(build_allocations("MM", PrefetcherKind::kNone,
                              default_scheduler_for(PrefetcherKind::kNone)),
            587u);
}

TEST(RunAllocTest, CounterSeesAllocations) {
  const std::uint64_t before = g_alloc_count.load();
  volatile int* p = new int(7);
  delete p;
  EXPECT_GT(g_alloc_count.load(), before);
}

struct AllocCase {
  const char* workload;
  PrefetcherKind pf;
  bool small_queues = false;
};

class RunAllocCaseTest : public ::testing::TestWithParam<AllocCase> {};

TEST_P(RunAllocCaseTest, RunsWithoutAllocating) {
  expect_run_allocation_free(GetParam().workload, GetParam().pf,
                             GetParam().small_queues);
}

std::string case_name(const ::testing::TestParamInfo<AllocCase>& info) {
  return std::string(info.param.workload) + "_" + to_string(info.param.pf) +
         (info.param.small_queues ? "_SmallQueues" : "");
}

// Every Fig. 10 configuration on MM: BASE, then the legend.
std::vector<AllocCase> fig10_mm_cases() {
  std::vector<AllocCase> cases;
  for (const RunConfig& rc : fig10_matrix({"MM"}))
    cases.push_back({"MM", rc.prefetcher});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Fig10, RunAllocCaseTest,
                         ::testing::ValuesIn(fig10_mm_cases()), case_name);

// Other access mixes: SCN has barriers, LPS re-executes its loads in a loop
// (PerCTA refreshes), BFS makes LAP retire and re-track macro blocks, and
// its CAPS case-1 fan-outs are the largest prefetch bursts.
INSTANTIATE_TEST_SUITE_P(
    Mixes, RunAllocCaseTest,
    ::testing::Values(AllocCase{"SCN", PrefetcherKind::kNone},
                      AllocCase{"SCN", PrefetcherKind::kCaps},
                      AllocCase{"LPS", PrefetcherKind::kCaps},
                      AllocCase{"BFS", PrefetcherKind::kLap},
                      AllocCase{"BFS", PrefetcherKind::kCaps}),
    case_name);

// Queues smaller than the bounds of the rings behind them: the L1-hit
// completion and DRAM in-service rings are sized by their own bounds, not
// by the LD/ST or DRAM queue size.
INSTANTIATE_TEST_SUITE_P(
    SmallQueues, RunAllocCaseTest,
    ::testing::Values(AllocCase{"SCN", PrefetcherKind::kNone, true},
                      AllocCase{"SCN", PrefetcherKind::kCaps, true},
                      AllocCase{"MM", PrefetcherKind::kNone, true},
                      AllocCase{"MM", PrefetcherKind::kCaps, true}),
    case_name);

}  // namespace
}  // namespace caps
