// Fixture: writes every live RegisteredStats counter outside its struct ->
// no dead-counter finding. Never compiled.
#include "stats_ok.hpp"

namespace caps {

void record(RegisteredStats& s, bool hit) {
  if (hit)
    ++s.hits;
  else
    ++s.misses;
  ++s.busy_cycles;
}

}  // namespace caps
