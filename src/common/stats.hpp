// Small statistics helpers used by all subsystems. Hot-path counters are
// plain u64 members of per-component stats structs; this header provides the
// shared aggregation utilities.
#pragma once

#include <cstdint>
#include <limits>

#include "common/types.hpp"

namespace caps {

/// Streaming mean/min/max accumulator (no per-sample storage).
class RunningStat {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  u64 count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }

  void merge(const RunningStat& o) {
    n_ += o.n_;
    sum_ += o.sum_;
    if (o.n_ > 0) {
      if (o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
  }

 private:
  u64 n_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
};

/// Safe ratio helper: returns `num/den`, or `if_zero` when den == 0.
inline double ratio(u64 num, u64 den, double if_zero = 0.0) {
  return den == 0 ? if_zero : static_cast<double>(num) / static_cast<double>(den);
}

/// CRTP base of every `*Stats` group. A group keeps only its fields and
/// lists each `u64`/`Cycle` counter once in a static registry:
///
///   template <typename F> static void for_each_counter_member(F&& f) {
///     f("reads", &DramStats::reads);
///     ...
///   }
///
/// plus, if it has `RunningStat` fields, `for_each_running_stat_member(f)`
/// of the same shape. The visit and merge below, the end-of-run auditor
/// (Gpu::audit) and stats_signature all iterate the registries, so a field
/// missing from one would silently escape all of them. tools/capsim-lint
/// rule `counter-registry` enforces the listing and this base.
template <typename Group>
// The implicit constructor stays public so that every group remains an
// aggregate (`GpuStats s{}`).
// NOLINTNEXTLINE(bugprone-crtp-constructor-accessibility)
struct CounterGroup {
  /// Calls f(name, value) for every registered counter.
  template <typename F>
  void for_each_counter(F&& f) const {
    const Group& g = static_cast<const Group&>(*this);
    Group::for_each_counter_member(
        [&](const char* name, auto m) { f(name, g.*m); });
  }

  /// Adds every registered counter and merges every registered RunningStat.
  void merge(const Group& o) {
    Group& g = static_cast<Group&>(*this);
    Group::for_each_counter_member([&](const char*, auto m) { g.*m += o.*m; });
    if constexpr (requires {
                    Group::for_each_running_stat_member(
                        [](const char*, auto) {});
                  }) {
      Group::for_each_running_stat_member(
          [&](const char*, auto m) { (g.*m).merge(o.*m); });
    }
  }
};

}  // namespace caps
