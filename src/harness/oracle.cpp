#include "harness/oracle.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <utility>

#include "analysis/report.hpp"
#include "core/caps_prefetcher.hpp"
#include "core/pas_gto_scheduler.hpp"
#include "core/pas_scheduler.hpp"

namespace caps {
namespace {

using analysis::cta_list;
using analysis::hex_addr;

/// Deduplicating divergence sink: one report per (pc, kind), with a
/// repetition count appended so 15 SMs disagreeing the same way read as one
/// diagnostic, not fifteen. Shared by the prefetcher and schedule checkers.
class DivergenceSink {
 public:
  DivergenceSink(std::string workload, std::vector<OracleDivergence>& out)
      : workload_(std::move(workload)), out_(out) {}

  void add(Addr pc, const std::string& kind, const std::string& detail) {
    const auto key = std::make_pair(pc, kind);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++counts_[it->second];
      return;
    }
    index_[key] = out_.size();
    counts_.push_back(1);
    out_.push_back({workload_, pc, kind, detail});
  }

  void finalize() {
    for (std::size_t i = 0; i < out_.size(); ++i)
      if (counts_[i] > 1)
        out_[i].detail += " (x" + std::to_string(counts_[i]) + " occurrences)";
  }

 private:
  std::string workload_;
  std::vector<OracleDivergence>& out_;
  std::map<std::pair<Addr, std::string>, std::size_t> index_;
  std::vector<u64> counts_;
};

/// Collapse repeated notes (one per SM is typical) into "note (xN)".
void dedupe_notes(std::vector<std::string>& notes) {
  std::vector<std::string> unique;
  std::vector<u64> counts;
  for (const std::string& n : notes) {
    bool found = false;
    for (std::size_t i = 0; i < unique.size(); ++i) {
      if (unique[i] == n) {
        ++counts[i];
        found = true;
        break;
      }
    }
    if (!found) {
      unique.push_back(n);
      counts.push_back(1);
    }
  }
  notes.clear();
  for (std::size_t i = 0; i < unique.size(); ++i)
    notes.push_back(counts[i] > 1
                        ? unique[i] + " (x" + std::to_string(counts[i]) + ")"
                        : unique[i]);
}

/// What one run shows the checkers: the trace sink's records, the run's
/// statistics and the schedulers' own counters.
struct Observation {
  /// First kLoadIssue of each (cta_flat, load PC), with its sequence number
  /// among all load issues: the leading warp whose base lines CAP learns,
  /// and the order in which leading warps discover them.
  std::map<std::pair<u32, Addr>, std::pair<TraceEvent, u64>> first;
  u64 seq = 0;
  u64 marks = 0;           ///< kLeadingMark events
  u64 mark_warp_viol = 0;  ///< marks landing off the predicted warp
  u64 clears = 0;          ///< kLeadingClear events
  u64 wakeup_events = 0;   ///< kEagerWakeup events
  u64 demotions = 0;       ///< kForcedDemotion events (contention signal)
  /// Per-PC completed-prefetch outcome buckets: [timely, late, early].
  std::map<Addr, std::array<u64, 3>> buckets;
  /// The run as the harness reports it: status kOk, since a fault ends the
  /// cross-check before the run returns.
  RunResult run;
  u64 sched_markers = 0;      ///< scheduler-internal counters, summed
  u64 sched_wakeups = 0;      ///< (PAS only) wakeup_promotions, summed
  u64 engine_mismatches = 0;  ///< SMs not running the expected scheduler
};

/// Run `w` under CAPS with PAS, or with PAS-GTO when `gto` is set, and
/// record what the checkers read into `obs`. Returns the finished machine,
/// whose DIST tables the prefetch checks read.
std::unique_ptr<Gpu> simulate(const Workload& w, const GpuConfig& gc, bool gto,
                              u32 predicted_leading_warp, Observation& obs) {
  TraceSink sink = [&obs, predicted_leading_warp](const TraceEvent& e) {
    switch (e.kind) {
      case TraceKind::kLoadIssue:
        obs.first.emplace(std::make_pair(e.cta_flat, e.pc),
                          std::make_pair(e, obs.seq));
        ++obs.seq;
        break;
      case TraceKind::kLeadingMark:
        ++obs.marks;
        if (e.warp_in_cta != predicted_leading_warp) ++obs.mark_warp_viol;
        break;
      case TraceKind::kLeadingClear:
        ++obs.clears;
        break;
      case TraceKind::kEagerWakeup:
        ++obs.wakeup_events;
        break;
      case TraceKind::kForcedDemotion:
        ++obs.demotions;
        break;
      case TraceKind::kPrefetchTimely:
        ++obs.buckets[e.pc][0];
        break;
      case TraceKind::kPrefetchLate:
        ++obs.buckets[e.pc][1];
        break;
      case TraceKind::kPrefetchEarlyEvicted:
        ++obs.buckets[e.pc][2];
        break;
    }
  };

  SmPolicyFactories policies = make_policies(
      PrefetcherKind::kCaps, SchedulerKind::kPas, /*caps_eager_wakeup=*/true);
  if (gto) {
    // There is no SchedulerKind for PAS-GTO.
    policies.make_scheduler = [](const GpuConfig& cfg,
                                 std::vector<WarpContext>& warps, auto&&...) {
      return std::make_unique<PasGtoScheduler>(cfg, warps);
    };
  }
  auto gpu = std::make_unique<Gpu>(gc, w.kernel, policies, std::move(sink));
  obs.run.stats = gpu->run();

  for (u32 i = 0; i < gc.num_sms; ++i) {
    const Scheduler& s = gpu->sm(i).scheduler();
    if (gto) {
      const auto* g = dynamic_cast<const PasGtoScheduler*>(&s);
      if (g == nullptr) {
        ++obs.engine_mismatches;
        continue;
      }
      obs.sched_markers += g->markers_set();
    } else {
      const auto* p = dynamic_cast<const PasScheduler*>(&s);
      if (p == nullptr) {
        ++obs.engine_mismatches;
        continue;
      }
      obs.sched_markers += p->markers_set();
      obs.sched_wakeups += p->wakeup_promotions();
    }
  }
  return gpu;
}

void check_dist_tables(const Gpu& gpu, const GpuConfig& gc,
                       const analysis::KernelAnalysis& ka,
                       std::vector<std::string>& notes, DivergenceSink& sink) {
  // Which prefetchable PCs were learned by at least one SM.
  std::map<Addr, bool> learned;

  for (u32 i = 0; i < gc.num_sms; ++i) {
    const auto* cp =
        dynamic_cast<const CapsPrefetcher*>(&gpu.sm(i).prefetcher());
    if (cp == nullptr) {
      sink.add(0, "engine-mismatch",
               "SM " + std::to_string(i) + " is not running CAPS");
      continue;
    }
    cp->dist().for_each([&](Addr pc, const DistTable::Entry& e) {
      const analysis::LoadAnalysis* la = ka.find(pc);
      if (la == nullptr) {
        sink.add(pc, "unknown-pc",
                 "DIST learned PC " + hex_addr(pc) +
                     " that is not a static global load");
        return;
      }
      if (la->cls == analysis::LoadClass::kIndirect) {
        sink.add(pc, "learned-indirect",
                 "DIST learned indirect PC " + hex_addr(pc) +
                     ": the register-trace oracle should exclude it before "
                     "any table access");
        return;
      }
      if (la->cls == analysis::LoadClass::kUncoalesced &&
          la->uniform_line_count) {
        sink.add(pc, "learned-uncoalesced",
                 "DIST learned always-uncoalesced PC " + hex_addr(pc));
        return;
      }
      if (!la->prefetchable()) {
        // Sometimes-uncoalesced or non-strided loads can legitimately train
        // on a locally-uniform warp pair; record, don't gate.
        notes.push_back("PC " + hex_addr(pc) + " (" + to_string(la->cls) +
                          ") transiently learned stride " +
                          std::to_string(e.stride));
        return;
      }
      if (e.stride != la->line_stride) {
        if (la->wrap_hazard) {
          notes.push_back(
              "PC " + hex_addr(pc) + " learned stride " +
              std::to_string(e.stride) + " != static " +
              std::to_string(la->line_stride) +
              " across a wrap seam (expected for wrap-hazard loads)");
        } else {
          sink.add(pc, "stride-mismatch",
                   "PC " + hex_addr(pc) + ": DIST learned stride " +
                       std::to_string(e.stride) + ", static analysis says " +
                       std::to_string(la->line_stride));
        }
      }
      learned[pc] = true;
    });
  }

  // Completeness: when DIST capacity admits every prefetchable PC and CTAs
  // have trailing warps to train with, each one must have been learned
  // somewhere. (With more prefetchable PCs than entries, which subset wins
  // admission is a scheduling race — membership is checked above only.)
  if (ka.num_prefetchable() <= gc.caps.dist_entries &&
      ka.warps_per_cta >= 2) {
    for (const analysis::LoadAnalysis& la : ka.loads) {
      if (!la.prefetchable() || la.wrap_hazard) continue;
      if (!learned[la.pc])
        sink.add(la.pc, "never-learned",
                 "prefetchable PC " + hex_addr(la.pc) + " (static stride " +
                     std::to_string(la.line_stride) +
                     ") was never learned by any SM's DIST table");
    }
  }
}

void check_exclusion_counters(const GpuStats& stats,
                              const analysis::KernelAnalysis& ka,
                              DivergenceSink& sink) {
  if (stats.pf_engine.excluded_indirect != ka.predicted_excluded_indirect)
    sink.add(0, "excluded-indirect-count",
             "runtime excluded_indirect = " +
                 std::to_string(stats.pf_engine.excluded_indirect) +
                 ", static prediction = " +
                 std::to_string(ka.predicted_excluded_indirect));
  if (stats.pf_engine.excluded_uncoalesced !=
      ka.predicted_excluded_uncoalesced)
    sink.add(0, "excluded-uncoalesced-count",
             "runtime excluded_uncoalesced = " +
                 std::to_string(stats.pf_engine.excluded_uncoalesced) +
                 ", static prediction = " +
                 std::to_string(ka.predicted_excluded_uncoalesced));
}

void check_leading_bases(const Observation& pas, const Kernel& kernel,
                         const analysis::KernelAnalysis& ka,
                         DivergenceSink& sink) {
  for (const auto& [key, issue] : pas.first) {
    const TraceEvent& e = issue.first;
    const analysis::LoadAnalysis* la = ka.find(e.pc);
    if (la == nullptr || la->cls == analysis::LoadClass::kIndirect) continue;
    // The first warp of a CTA to issue an affine load is the leading warp
    // CAP registers; its first execution is iteration 0 by construction.
    const std::vector<Addr> predicted = analysis::predicted_warp_lines(
        la->pattern, kernel.block(), e.cta_id, e.warp_in_cta, /*iter=*/0,
        ka.line_size);
    if (predicted.empty() || predicted.front() != e.line ||
        predicted.size() != e.num_lines) {
      sink.add(e.pc, "leading-base-mismatch",
               "PC " + hex_addr(e.pc) + " CTA " + format_dim3(e.cta_id) +
                   " leading warp " + std::to_string(e.warp_in_cta) +
                   ": runtime base line " + hex_addr(e.line) + " (" +
                   std::to_string(e.num_lines) + " lines), Theta(c) predicts " +
                   (predicted.empty() ? std::string("<none>")
                                      : hex_addr(predicted.front())) +
                   " (" + std::to_string(predicted.size()) + " lines)");
    }
  }
}

/// Marker protocol: every CTA launch marks exactly one leading warp — the
/// predicted one — and every marker is cleared by that warp's first global
/// access. Holds for both schedulers.
void check_marker_protocol(const Observation& obs,
                           const analysis::ScheduleAdvice& adv,
                           const std::string& tag, DivergenceSink& sink) {
  if (obs.engine_mismatches != 0)
    sink.add(0, tag + ":engine-mismatch",
             std::to_string(obs.engine_mismatches) +
                 " SMs are not running the expected scheduler");
  if (obs.mark_warp_viol != 0)
    sink.add(0, tag + ":leading-mark-warp",
             std::to_string(obs.mark_warp_viol) + " of " +
                 std::to_string(obs.marks) +
                 " leading marks landed on a warp other than predicted warp " +
                 std::to_string(adv.predicted_leading_warp));
  if (obs.marks != obs.run.stats.ctas_launched)
    sink.add(0, tag + ":leading-mark-count",
             "runtime set " + std::to_string(obs.marks) +
                 " leading marks, one per CTA predicts " +
                 std::to_string(obs.run.stats.ctas_launched));
  if (adv.has_global_load && obs.clears != obs.marks)
    sink.add(0, tag + ":leading-clear-count",
             "runtime cleared " + std::to_string(obs.clears) + " of " +
                 std::to_string(obs.marks) +
                 " leading marks; every leader reaches a global access");
  if (obs.sched_markers != obs.marks)
    sink.add(0, tag + ":marker-counter",
             "scheduler counters report " + std::to_string(obs.sched_markers) +
                 " markers_set but the event stream carries " +
                 std::to_string(obs.marks));
}

/// Base-address discovery: over the initial CTA wave, the order in which
/// leading warps first reach the kernel's first global load is diffed
/// against the advisor's queue replay (and each CTA must sit on its
/// round-robin SM). PAS-GTO's greedy leader cannot be overtaken, so its
/// total order gates unconditionally. Under PAS, forced demotions (a
/// contention signal the static model deliberately ignores — DESIGN.md §12)
/// can reorder pending leaders and let a trailer overtake its demoted
/// leader, so only the partial order gates on contended runs: wave
/// membership, the ready-resident leader prefix, and ready-before-pending.
/// The total order and leader-first property gate when the run saw no
/// demotion and are reported as notes otherwise.
void check_discovery_order(const Observation& obs,
                           const analysis::ScheduleAdvice& adv,
                           const GpuConfig& gc, bool gto,
                           const std::string& tag, DivergenceSink& sink,
                           std::vector<std::string>& notes) {
  if (!adv.has_global_load) return;
  if (!adv.order_reliable) {
    notes.push_back("discovery order not checked (" + tag +
                    "): " + adv.order_caveat);
    return;
  }
  const bool contended = !gto && obs.demotions > 0;
  u64 soft_leader_viol = 0, soft_order_viol = 0;

  std::map<u32, std::vector<std::pair<u64, u32>>> per_sm;  // sm -> (seq, cta)
  for (const auto& [key, v] : obs.first) {
    if (key.second != adv.first_load_pc || key.first >= adv.initial_wave_ctas)
      continue;
    const auto& [e, seq] = v;
    const u32 warp = e.warp_in_cta;
    const u32 sm = e.sm_id;
    if (sm != key.first % gc.num_sms) {
      sink.add(adv.first_load_pc, tag + ":wave-placement",
               "initial-wave CTA " + std::to_string(key.first) +
                   " ran on SM " + std::to_string(sm) +
                   ", round-robin fill predicts SM " +
                   std::to_string(key.first % gc.num_sms));
      continue;
    }
    if (warp != adv.predicted_leading_warp) {
      if (contended)
        ++soft_leader_viol;
      else
        sink.add(adv.first_load_pc, tag + ":leader-first",
                 "CTA " + std::to_string(key.first) +
                     ": first issue of the first load came from warp " +
                     std::to_string(warp) + ", predicted leading warp " +
                     std::to_string(adv.predicted_leading_warp));
    }
    per_sm[sm].push_back({seq, key.first});
  }

  for (const analysis::SmWave& wave : adv.waves) {
    std::vector<u32> observed;
    auto it = per_sm.find(wave.sm_id);
    if (it != per_sm.end()) {
      std::sort(it->second.begin(), it->second.end());
      for (const auto& [seq, cta] : it->second) observed.push_back(cta);
    }
    const std::vector<u32>& expected =
        gto ? wave.discovery_pas_gto : wave.discovery_pas;
    if (observed == expected) continue;

    const std::string diff =
        "SM " + std::to_string(wave.sm_id) + " discovered bases as " +
        cta_list(observed) + ", advisor predicts " + cta_list(expected);
    if (!contended) {
      sink.add(adv.first_load_pc, tag + ":discovery-order", diff);
      continue;
    }

    // Contended PAS run: gate the partial order only.
    std::vector<u32> obs_sorted = observed, exp_sorted = expected;
    std::sort(obs_sorted.begin(), obs_sorted.end());
    std::sort(exp_sorted.begin(), exp_sorted.end());
    if (obs_sorted != exp_sorted) {
      sink.add(adv.first_load_pc, tag + ":discovery-membership", diff);
      continue;
    }
    bool prefix_ok = true;
    for (std::size_t i = 0; i < wave.ready_leader_count; ++i)
      if (i >= observed.size() || observed[i] != expected[i])
        prefix_ok = false;
    if (!prefix_ok)
      sink.add(adv.first_load_pc, tag + ":discovery-ready-prefix", diff);
    else
      ++soft_order_viol;  // pending-leader sequence only; note below
  }

  if (soft_leader_viol != 0)
    notes.push_back(tag + ": " + std::to_string(soft_leader_viol) +
                    " initial-wave CTA(s) were discovered by a trailing warp "
                    "under contention (" + std::to_string(obs.demotions) +
                    " forced demotions)");
  if (soft_order_viol != 0)
    notes.push_back(tag + ": pending-leader discovery sequence deviated on " +
                    std::to_string(soft_order_viol) +
                    " SM(s) under contention (" +
                    std::to_string(obs.demotions) + " forced demotions)");
}

/// Eager wake-up semantics: PAS may only wake when the advisor sees an
/// opportunity (pending population + a prefetchable PC), and its event
/// stream must agree with its internal counter; PAS-GTO never eager-wakes.
void check_wakeups(const Observation& obs, const analysis::ScheduleAdvice& adv,
                   bool gto, const std::string& tag, DivergenceSink& sink,
                   std::vector<std::string>& notes) {
  if (gto) {
    if (obs.wakeup_events != 0)
      sink.add(0, tag + ":eager-wakeup",
               "PAS-GTO must never eager-wake, yet " +
                   std::to_string(obs.wakeup_events) + " wake-ups fired");
    return;
  }
  if (obs.wakeup_events > 0 && !adv.wakeup_opportunity) {
    // A wake-up needs a pending warp with a filled prefetch. No pending
    // population (or no loads at all) makes that impossible; but loads the
    // static analysis rejects (non-strided, sometimes-uncoalesced) can still
    // transiently train DIST and prefetch, so with loads present this is an
    // observation, not a divergence.
    if (adv.pending_warps == 0 || !adv.has_global_load)
      sink.add(0, tag + ":wakeup-without-opportunity",
               std::to_string(obs.wakeup_events) +
                   " eager wake-ups fired, but the advisor predicts no "
                   "opportunity (pending_warps = " +
                   std::to_string(adv.pending_warps) + ")");
    else
      notes.push_back(tag + ": " + std::to_string(obs.wakeup_events) +
                      " eager wake-ups despite no statically prefetchable "
                      "PC (transient DIST training)");
  }
  if (obs.sched_wakeups != obs.wakeup_events)
    sink.add(0, tag + ":wakeup-counter",
             "scheduler counters report " + std::to_string(obs.sched_wakeups) +
                 " promotions but the event stream carries " +
                 std::to_string(obs.wakeup_events));
}

/// Static timeliness classes vs. the simulated fig14-style buckets (PAS run
/// only). Only decisive runtime shares gate: a dominant prediction facing a
/// non-decisive share or a thin sample is reported as a note.
void check_timeliness(const Observation& pas,
                      const analysis::ScheduleAdvice& adv,
                      DivergenceSink& sink, std::vector<std::string>& notes) {
  constexpr u64 kMinSamples = 100;
  constexpr double kTimelyShare = 0.65;
  constexpr double kLateShare = 0.35;
  for (const analysis::PcSchedule& ps : adv.pcs) {
    if (ps.timeliness == analysis::TimelinessClass::kMixed) continue;
    u64 timely = 0, late = 0;
    auto it = pas.buckets.find(ps.pc);
    if (it != pas.buckets.end()) {
      timely = it->second[0];
      late = it->second[1];
    }
    const u64 n = timely + late;
    const std::string label = "PC " + hex_addr(ps.pc) + " predicted " +
                              to_string(ps.timeliness) + " (" + ps.rule + ")";
    if (n < kMinSamples) {
      notes.push_back(label + ": only " + std::to_string(n) +
                      " completed prefetches — not judged");
      continue;
    }
    const double share =
        static_cast<double>(timely) / static_cast<double>(n);
    const bool runtime_timely = share >= kTimelyShare;
    const bool runtime_late = share <= kLateShare;
    if (!runtime_timely && !runtime_late) {
      notes.push_back(label + ": runtime timely share " +
                      std::to_string(share) + " is non-decisive");
      continue;
    }
    const bool predicted_timely =
        ps.timeliness == analysis::TimelinessClass::kTimelyDominant;
    if (predicted_timely != runtime_timely)
      sink.add(ps.pc, "pas:timeliness-mismatch",
               label + ", but the runtime timely share over " +
                   std::to_string(n) + " prefetches is " +
                   std::to_string(share));
  }
}

/// Seeded prefetch fixture: skew one stride and one counter so the prefetch
/// section must fail. Exercised by the `analyze_negative` ctest target.
void skew_prefetch_predictions(analysis::KernelAnalysis& ka,
                               const GpuConfig& gc,
                               std::vector<std::string>& notes) {
  for (analysis::LoadAnalysis& la : ka.loads) {
    if (la.prefetchable()) {
      la.line_stride += gc.l1d.line_size;
      break;
    }
  }
  ka.predicted_excluded_indirect += 7;
  notes.push_back("inject_divergence: static predictions skewed");
}

/// Seeded schedule fixture: claim the wrong leading warp and reverse the
/// discovery orders so the schedule section must fail. Exercised by the
/// `analyze_schedule_negative` ctest target.
void skew_schedule_predictions(analysis::ScheduleAdvice& adv,
                               std::vector<std::string>& notes) {
  adv.predicted_leading_warp ^= 1u;
  for (analysis::SmWave& wave : adv.waves) {
    std::reverse(wave.discovery_pas.begin(), wave.discovery_pas.end());
    std::reverse(wave.discovery_pas_gto.begin(), wave.discovery_pas_gto.end());
  }
  notes.push_back("inject_divergence: schedule predictions skewed");
}

}  // namespace

OracleResult cross_check(const Workload& w, const OracleOptions& opt) {
  OracleResult r;
  r.workload = w.abbr;
  const GpuConfig& gc = opt.base;

  // A fault fails every section that reads the run it happens in: both
  // sections until the PAS run is checked, then the schedule section only.
  std::vector<OracleSection*> failing = {&r.prefetch, &r.schedule};
  auto fail = [&failing](RunStatus status, const std::string& error) {
    for (OracleSection* s : failing) {
      s->status = status;
      s->error = error;
    }
  };
  // Only a complete run with a clean audit is checked.
  auto usable = [&fail](const RunResult& run) {
    if (!run.ok()) {  // cut off by max_cycles: the status is kOk
      fail(RunStatus::kConfigError,
           "run hit the cycle limit; counters are partial — raise "
           "max_cycles for the oracle cross-check");
      return false;
    }
    const GpuStats& stats = run.stats;
    if (!stats.audit_clean()) {
      fail(RunStatus::kInvariantViolation,
           "invariant audit failed: " + stats.audit_violations.front());
      return false;
    }
    return true;
  };

  try {
    gc.validate();
    r.analysis = analysis::analyze_kernel(w.kernel, gc);
    // Advise from the unskewed analysis, so that the prefetch fixture
    // cannot leak into the schedule predictions.
    r.advice = analysis::advise_schedule(w.kernel, r.analysis, gc);
    if (opt.inject_divergence)
      skew_prefetch_predictions(r.analysis, gc, r.prefetch.notes);
    if (opt.inject_schedule_divergence)
      skew_schedule_predictions(r.advice, r.schedule.notes);
    const u32 leader = r.advice.predicted_leading_warp;

    Observation pas;
    {
      const std::unique_ptr<Gpu> gpu =
          simulate(w, gc, /*gto=*/false, leader, pas);
      if (!usable(pas.run)) return r;
      DivergenceSink sink(r.workload, r.prefetch.divergences);
      check_dist_tables(*gpu, gc, r.analysis, r.prefetch.notes, sink);
      check_exclusion_counters(pas.run.stats, r.analysis, sink);
      check_leading_bases(pas, w.kernel, r.analysis, sink);
      sink.finalize();
      dedupe_notes(r.prefetch.notes);
    }
    failing = {&r.schedule};

    Observation gto;
    simulate(w, gc, /*gto=*/true, leader, gto);
    if (!usable(gto.run)) return r;
    DivergenceSink sink(r.workload, r.schedule.divergences);
    std::vector<std::string>& notes = r.schedule.notes;
    check_marker_protocol(pas, r.advice, "pas", sink);
    check_marker_protocol(gto, r.advice, "pas-gto", sink);
    check_discovery_order(pas, r.advice, gc, /*gto=*/false, "pas", sink,
                          notes);
    check_discovery_order(gto, r.advice, gc, /*gto=*/true, "pas-gto", sink,
                          notes);
    check_wakeups(pas, r.advice, /*gto=*/false, "pas", sink, notes);
    check_wakeups(gto, r.advice, /*gto=*/true, "pas-gto", sink, notes);
    check_timeliness(pas, r.advice, sink, notes);
    sink.finalize();
    dedupe_notes(notes);
  } catch (...) {
    RunFault f = current_run_fault();
    fail(f.status, f.error);
  }
  return r;
}

}  // namespace caps
