#include "gpu/sm_stats.hpp"

namespace caps {

void SmStats::merge(const SmStats& o) {
  // Both registries drive the merge, so a newly added counter or
  // accumulator can never be forgotten here.
  for_each_counter_member([&](const char*, auto m) { this->*m += o.*m; });
  for_each_running_stat_member(
      [&](const char*, auto m) { (this->*m).merge(o.*m); });
}

}  // namespace caps
