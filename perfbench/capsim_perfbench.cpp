// capsim-perfbench: the measuring half of the CAPSim benchmark (run.py is the
// command users type; it builds this program and turns its raw output into
// the named metrics).
//
// Workloads are the Fig. 10 configurations — BASE plus the seven-engine
// legend, each engine with its default scheduler, on the Table III machine:
//   fig10-regular    12 regular kernels x 8 configs, 1 worker
//   fig10-irregular  PVR/CCL/BFS/KM x 8 configs, 1 worker
//   fig10-parallel   all 16 kernels x 8 configs, --threads workers
// The seed permutes job submission order only; results are mapped back to
// canonical (kernel-major, legend) order before anything is hashed.
//
// Modes (each prints one JSON object on the last line of stdout):
//   sweep  time as many repetitions of the sweep through run_sweep() as fit
//          in --seconds (at least one), then re-run it (serial workloads:
//          all configs on --threads workers; fig10-parallel: a seed-chosen
//          sample on one worker) and compare every run's signature.
//   trace  one untraced sweep, then the same configs with layer timing
//          (layer_timing.hpp); every traced signature must match.
//   probe  stop the first job of the sweep right after its first simulated
//          cycle and print the seconds since main() was entered.
//
// Usage:
//   capsim-perfbench --mode sweep|trace|probe --workload NAME [--seed N]
//                    [--seconds S] [--threads N]
// Exit status: 0 when every run is ok and every signature agrees, 1 when a
// run failed or a signature disagreed, 2 on usage errors.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "host_ref.hpp"
#include "layer_timing.hpp"
#include "sweep_order.hpp"
#include "workloads/workload.hpp"

using namespace caps;
using namespace caps::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Sample size of fig10-parallel's serial re-check.
constexpr std::size_t kParallelCheckSample = 8;
/// Upper bound on timed repetitions, whatever --seconds allows.
constexpr u32 kMaxReps = 50;

struct Options {
  std::string mode;
  std::string workload;
  u64 seed = 1;
  double seconds = 50;
  /// Workers of fig10-parallel and of the serial workloads' re-check
  /// (0: one per hardware thread).
  u32 threads = 0;
};

struct WorkloadSpec {
  std::vector<std::string> kernels;
  bool serial = true;
};

bool workload_spec(const std::string& name, WorkloadSpec& out) {
  if (name == "fig10-regular") {
    out = {regular_workload_names(), true};
  } else if (name == "fig10-irregular") {
    out = {irregular_workload_names(), true};
  } else if (name == "fig10-parallel") {
    out = {{}, false};
    for (const Workload& w : workload_suite()) out.kernels.push_back(w.abbr);
  } else {
    return false;
  }
  return true;
}

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

std::string label(const RunConfig& c) {
  return c.workload + "/" + to_string(c.prefetcher);
}

/// Digest of one run: its sweep_signature entry (header with status and
/// scheduler, then every counter).
std::string run_digest(const RunResult& r) {
  return fnv1a_hex(sweep_signature({r}));
}

/// A run passes when it finished ok (which includes a clean audit) before
/// the cycle limit. Returns the failure text, empty when it passed.
std::string run_failure(const RunResult& r) {
  if (!r.ok()) return std::string(to_string(r.status)) + ": " + r.error;
  if (r.stats.hit_cycle_limit) return "hit the cycle limit";
  return {};
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string json_list(const std::vector<T>& xs, F&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += render(xs[i]);
  }
  return out + "]";
}

/// What a timed job's pre-run hook records: the host-speed reference it
/// timed and the worker thread it ran on.
struct JobProbe {
  double ref_s = 0;
  std::thread::id worker;
};

/// Collects failures; each failed simulation is counted once per execution.
struct Failures {
  std::vector<std::string> lines;
  u64 failed = 0;
  u64 attempted = 0;

  void add(const std::string& line) { lines.push_back(line); }
  std::string json() const {
    return json_list(lines, [](const std::string& s) { return json_str(s); });
  }
};

/// Peak resident set of this process image in KiB (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would report
/// the spawning process's footprint when that is larger.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kb = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kb;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return kb;
}

u32 workload_threads(const WorkloadSpec& spec, const Options& o,
                     std::size_t jobs) {
  return spec.serial ? 1 : resolve_sweep_threads(o.threads, jobs);
}

int mode_sweep(const Options& o, const WorkloadSpec& spec) {
  const std::vector<RunConfig> cfgs = fig10_configs(spec.kernels);
  const std::size_t n = cfgs.size();
  const u32 threads = workload_threads(spec, o, n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;

  Failures f;
  std::vector<std::string> reference;  // per-run digests of repetition 0
  std::string sim_digest;
  std::ostringstream reps;
  const auto t_start = Clock::now();
  for (u32 rep = 0; rep < kMaxReps; ++rep) {
    // Every job first times the host-speed reference on its worker.
    std::vector<JobProbe> probes(n);
    std::vector<RunConfig> timed = cfgs;
    for (std::size_t i = 0; i < n; ++i)
      timed[i].pre_run_hook = [p = &probes[i]](Gpu&) {
        p->worker = std::this_thread::get_id();
        p->ref_s = reference_seconds();
      };
    const auto t0 = Clock::now();
    const std::vector<RunResult> res =
        run_in_order(timed, all, permutation(o.seed, rep, n), threads);
    const double wall = seconds_since(t0);

    u64 cycles = 0;
    u64 insts = 0;
    std::vector<double> run_walls;
    std::vector<double> refs;
    std::vector<u32> workers;
    std::vector<std::thread::id> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const RunResult& r = res[i];
      cycles += r.stats.cycles;
      insts += r.stats.sm.issued_instructions;
      run_walls.push_back(r.wall_seconds - probes[i].ref_s);
      refs.push_back(probes[i].ref_s);
      const auto w = std::find(seen.begin(), seen.end(), probes[i].worker);
      workers.push_back(static_cast<u32>(w - seen.begin()));
      if (w == seen.end()) seen.push_back(probes[i].worker);
      const std::string digest = run_digest(r);
      const std::string why = run_failure(r);
      bool bad = !why.empty();
      if (bad) f.add(label(cfgs[i]) + " rep " + std::to_string(rep) + ": " + why);
      if (rep == 0) {
        reference.push_back(digest);
      } else if (digest != reference[i]) {
        bad = true;
        f.add(label(cfgs[i]) + " rep " + std::to_string(rep) +
              ": signature differs from rep 0");
      }
      if (bad) ++f.failed;
    }
    f.attempted += n;
    if (rep == 0) sim_digest = fnv1a_hex(sweep_signature(res));
    reps << (rep ? "," : "") << "{\"wall_s\":" << json_num(wall)
         << ",\"sim_cycles\":" << cycles << ",\"warp_insts\":" << insts
         << ",\"run_wall_s\":" << json_list(run_walls, json_num)
         << ",\"ref_s\":" << json_list(refs, json_num) << ",\"worker\":"
         << json_list(workers, [](u32 w) { return std::to_string(w); })
         << "}";
    // Start another repetition only if one more like this one still ends
    // within --seconds, so every run measures about the same span.
    if (seconds_since(t_start) + wall > o.seconds) break;
  }
  // The program's own peak: the reference's table is not the simulator's.
  const double rss_kb = peak_rss_kb() - static_cast<double>(kReferenceTableKiB);

  // Re-check outside the timed section, in another submission order and on
  // another worker count than the timed repetitions.
  std::vector<std::size_t> check = all;
  u32 check_threads = resolve_sweep_threads(o.threads, n);
  if (!spec.serial) {
    const std::vector<std::size_t> p = permutation(o.seed, 999, n);
    check.assign(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(kParallelCheckSample, n)));
    check_threads = 1;
  }
  const std::vector<RunResult> rechecked = run_in_order(
      cfgs, check, permutation(o.seed, 1000, check.size()), check_threads);
  for (std::size_t i = 0; i < check.size(); ++i) {
    const std::size_t c = check[i];
    const std::string why = run_failure(rechecked[i]);
    const bool differs = run_digest(rechecked[i]) != reference[c];
    if (!why.empty()) f.add(label(cfgs[c]) + " re-check: " + why);
    if (differs)
      f.add(label(cfgs[c]) + " re-check on " + std::to_string(check_threads) +
            " worker(s): signature differs from the timed sweep");
    if (!why.empty() || differs) ++f.failed;
  }
  f.attempted += check.size();

  std::printf(
      "{\"mode\":\"sweep\",\"workload\":%s,\"configs\":%zu,\"threads\":%u,"
      "\"check_threads\":%u,\"check_configs\":%zu,\"sim_digest\":%s,"
      "\"peak_rss_kb\":%s,\"ref_nominal_s\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"failures\":%s,\"reps\":[%s]}\n",
      json_str(o.workload).c_str(), n, threads, check_threads, check.size(),
      json_str(sim_digest).c_str(), json_num(rss_kb).c_str(),
      json_num(kReferenceNominalS).c_str(),
      static_cast<unsigned long long>(f.attempted),
      static_cast<unsigned long long>(f.failed), f.json().c_str(),
      reps.str().c_str());
  return f.failed == 0 ? 0 : 1;
}

/// Name=value counters summed over every run of a sweep.
struct CounterSums {
  std::map<std::string, double> sums;

  void add(const std::string& name, double v) { sums[name] += v; }
  template <typename S>
  void add_group(const char* group, const S& s) {
    s.for_each_counter([&](const char* name, u64 v) {
      add(std::string(group) + "." + name, static_cast<double>(v));
    });
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [name, v] : sums)
      out += (out.size() > 1 ? "," : "") + json_str(name) + ":" + json_num(v);
    return out + "}";
  }
};

int mode_trace(const Options& o, const WorkloadSpec& spec) {
  const std::vector<RunConfig> cfgs = fig10_configs(spec.kernels);
  const std::size_t n = cfgs.size();
  const u32 threads = workload_threads(spec, o, n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  const std::vector<std::size_t> order = permutation(o.seed, 0, n);

  auto t0 = Clock::now();
  const std::vector<RunResult> plain = run_in_order(cfgs, all, order, threads);
  const double plain_wall = seconds_since(t0);

  std::vector<RunConfig> submitted;
  for (std::size_t i : order) submitted.push_back(cfgs[i]);
  SweepOptions opt;
  opt.threads = threads;
  t0 = Clock::now();
  std::vector<TracedRun> traced_submitted =
      parallel_ordered_map(submitted, run_traced, opt);
  const double traced_wall = seconds_since(t0);
  std::vector<TracedRun> traced(n);
  for (std::size_t i = 0; i < n; ++i)
    traced[order[i]] = std::move(traced_submitted[i]);

  Failures f;
  CounterSums c;
  double plain_run_wall = 0;
  std::ostringstream ipc;
  for (std::size_t i = 0; i < n; ++i) {
    const RunResult& p = plain[i];
    const TracedRun& t = traced[i];
    plain_run_wall += p.wall_seconds;
    std::string why = run_failure(p);
    if (why.empty() && !t.ok) why = "traced run: " + t.error;
    if (why.empty() && (t.scheduler_used != p.scheduler_used ||
                        stats_signature(t.stats) != stats_signature(p.stats)))
      why = "traced signature differs from the untraced run";
    if (!why.empty()) {
      f.add(label(cfgs[i]) + ": " + why);
      ++f.failed;
    }
    f.attempted += 2;

    const GpuStats& s = t.stats;
    c.add("gpu.cycles", static_cast<double>(s.cycles));
    c.add_group("sm", s.sm);
    c.add_group("pf_engine", s.pf_engine);
    c.add_group("dram", s.dram);
    c.add_group("l2", s.l2);
    c.add_group("xbar", t.request_xbar);
    c.add("sm.demand_miss_latency_sum", s.sm.demand_miss_latency.sum());
    c.add("sm.demand_miss_latency_count",
          static_cast<double>(s.sm.demand_miss_latency.count()));
    c.add("time.construct_s", t.construct_s);
    c.add("time.step_s", t.step_s);
    c.add("time.done_poll_s", t.done_poll_s);
    c.add("time.audit_s", t.audit_s);
    c.add("time.sched_s", static_cast<double>(t.clock.sched_ns) * 1e-9);
    c.add("time.prefetch_s", static_cast<double>(t.clock.prefetch_ns) * 1e-9);
    c.add("calls.pick", static_cast<double>(t.clock.pick_calls));
    c.add("calls.prefetch", static_cast<double>(t.clock.prefetch_calls));

    if (cfgs[i].prefetcher == PrefetcherKind::kCaps) {
      // BASE is the first config of every kernel (canonical order).
      const std::size_t base = i - prefetcher_legend().size();
      ipc << (ipc.tellp() > 0 ? "," : "") << "{\"kernel\":"
          << json_str(cfgs[i].workload)
          << ",\"base_ipc\":" << json_num(traced[base].stats.ipc())
          << ",\"caps_ipc\":" << json_num(s.ipc()) << "}";
    }
  }

  std::printf(
      "{\"mode\":\"trace\",\"workload\":%s,\"configs\":%zu,\"threads\":%u,"
      "\"untraced_wall_s\":%s,\"untraced_run_wall_s\":%s,\"traced_wall_s\":%s,"
      "\"sim_digest\":%s,\"attempted\":%llu,\"failed\":%llu,\"failures\":%s,"
      "\"counters\":%s,\"caps_vs_base\":[%s]}\n",
      json_str(o.workload).c_str(), n, threads, json_num(plain_wall).c_str(),
      json_num(plain_run_wall).c_str(), json_num(traced_wall).c_str(),
      json_str(fnv1a_hex(sweep_signature(plain))).c_str(),
      static_cast<unsigned long long>(f.attempted),
      static_cast<unsigned long long>(f.failed), f.json().c_str(),
      c.json().c_str(), ipc.str().c_str());
  return f.failed == 0 ? 0 : 1;
}

/// Thrown from the probe's pre-run hook to end the run after one cycle.
struct FirstCycleReached : std::exception {
  const char* what() const noexcept override { return "first cycle reached"; }
};

int mode_probe(const Options& o, const WorkloadSpec& spec,
               Clock::time_point started) {
  const std::vector<RunConfig> cfgs = fig10_configs(spec.kernels);
  RunConfig first = cfgs[permutation(o.seed, 0, cfgs.size()).front()];
  Clock::time_point reached{};
  first.pre_run_hook = [&reached](Gpu& gpu) {
    gpu.step();
    reached = Clock::now();
    throw FirstCycleReached{};
  };
  SweepOptions opt;
  opt.threads = workload_threads(spec, o, cfgs.size());
  const std::vector<RunResult> r = run_sweep(std::vector<RunConfig>{first}, opt);
  if (reached == Clock::time_point{}) {
    std::fprintf(stderr, "capsim-perfbench: probe never reached a cycle: %s\n",
                 r.front().error.c_str());
    return 1;
  }
  const double setup_s =
      std::chrono::duration<double>(reached - started).count();
  // The host-speed reference is timed after the probed span, in the same
  // process, so set-up time is scaled like simulation time.
  const double ref_s = reference_seconds();
  std::printf(
      "{\"mode\":\"probe\",\"setup_s\":%s,\"ref_s\":%s,"
      "\"ref_nominal_s\":%s}\n",
      json_num(setup_s).c_str(), json_num(ref_s).c_str(),
      json_num(kReferenceNominalS).c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: capsim-perfbench --mode sweep|trace|probe --workload "
               "fig10-regular|fig10-irregular|fig10-parallel [--seed N] "
               "[--seconds S] [--threads N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point started = Clock::now();
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--mode") o.mode = v;
    else if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--threads") o.threads = static_cast<u32>(std::atoi(v));
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  WorkloadSpec spec;
  if (!workload_spec(o.workload, spec)) return usage();
  if (o.mode == "sweep") return mode_sweep(o, spec);
  if (o.mode == "trace") return mode_trace(o, spec);
  if (o.mode == "probe") return mode_probe(o, spec, started);
  return usage();
}
