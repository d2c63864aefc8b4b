// Fixture: writes one DeadStats counter; the others stay dead. Never
// compiled.
#include "stats_dead.hpp"

namespace caps {

void record(DeadStats& s) {
  ++s.written;
  // only_in_comment is mentioned here, which is not a use.
  const char* label = "only_in_comment";
  (void)label;
}

}  // namespace caps
