// Allocation tests (DESIGN.md §13). Building the Table III machine stays
// within a fixed number of allocations, and after warm-up, stepping the
// simulator must perform zero heap allocations, in every Fig. 10
// configuration. Every hot-path container — scheduler queues, LD/ST queues,
// MSHR slots, crossbar/L2/DRAM queues, coalescer scratch, prefetcher tables —
// is sized at construction, so a new allocation inside the measurement
// window is a de-allocation regression.
//
// The global operator new/delete are replaced with counting versions; only
// the delta across the measured window is asserted (gtest and the fixture
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

/// Total cycles the configuration simulates, so the warm-up/measure window
/// can be placed well inside the run whatever the workload length.
u64 total_cycles(const std::string& wl, PrefetcherKind pf,
                 const GpuConfig& cfg) {
  RunConfig rc;
  rc.workload = wl;
  rc.prefetcher = pf;
  rc.base = cfg;
  const RunResult r = run_experiment(rc);
  EXPECT_EQ(r.status, RunStatus::kOk) << r.error;
  return r.stats.cycles;
}

void expect_steady_state_allocation_free(const std::string& wl,
                                         PrefetcherKind pf) {
  GpuConfig cfg;
  cfg.num_sms = 2;
  const u64 total = total_cycles(wl, pf, cfg);
  ASSERT_GT(total, 3'000u) << wl << " too short for a steady-state window";
  const u64 warmup = total / 2;
  const u64 window = total / 4;

  const SchedulerKind sched = default_scheduler_for(pf);
  Gpu gpu(cfg, find_workload(wl).kernel,
          make_policies(pf, sched, /*caps_eager_wakeup=*/true));

  for (u64 i = 0; i < warmup && !gpu.done(); ++i) gpu.step();
  ASSERT_FALSE(gpu.done());

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (u64 i = 0; i < window && !gpu.done(); ++i) gpu.step();
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocation(s) in a " << window
      << "-cycle steady-state window (" << wl << '/' << to_string(pf) << ')';
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

TEST(SteadyStateAllocTest, CounterSeesAllocations) {
  const std::uint64_t before = g_alloc_count.load();
  volatile int* p = new int(7);
  delete p;
  EXPECT_GT(g_alloc_count.load(), before);
}

struct AllocCase {
  const char* workload;
  PrefetcherKind pf;
};

class SteadyStateAllocCaseTest : public ::testing::TestWithParam<AllocCase> {};

TEST_P(SteadyStateAllocCaseTest, StepsWithoutAllocating) {
  expect_steady_state_allocation_free(GetParam().workload, GetParam().pf);
}

std::string case_name(const ::testing::TestParamInfo<AllocCase>& info) {
  return std::string(info.param.workload) + "_" + to_string(info.param.pf);
}

// Every Fig. 10 configuration on MM: BASE, then the legend.
std::vector<AllocCase> fig10_mm_cases() {
  std::vector<AllocCase> cases;
  for (const RunConfig& rc : fig10_matrix({"MM"}))
    cases.push_back({"MM", rc.prefetcher});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Fig10, SteadyStateAllocCaseTest,
                         ::testing::ValuesIn(fig10_mm_cases()), case_name);

// Other access mixes: SCN has barriers, LPS re-executes its loads in a loop
// (PerCTA refreshes), BFS makes LAP retire and re-track macro blocks.
INSTANTIATE_TEST_SUITE_P(
    Mixes, SteadyStateAllocCaseTest,
    ::testing::Values(AllocCase{"SCN", PrefetcherKind::kNone},
                      AllocCase{"SCN", PrefetcherKind::kCaps},
                      AllocCase{"LPS", PrefetcherKind::kCaps},
                      AllocCase{"BFS", PrefetcherKind::kLap}),
    case_name);

}  // namespace
}  // namespace caps
