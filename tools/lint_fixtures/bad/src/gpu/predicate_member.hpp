// Fixture: warp predicates held as data members -> hot-path-function
// findings on lines 12, 13, 17 and 22. Never compiled.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace caps {

class PredicatedScheduler {
  std::function<bool(u32, Cycle)> eligible_;
  std::function<bool(u32)> waiting_mem_{};
  u32 rr_ = 0;

  struct Hooks {
    std::function<void(u32)> on_done = nullptr;
  };
  Hooks hooks_;
  std::function<std::unique_ptr<Hooks>(
      std::function<bool(u32)>, const std::vector<u32>&)>
      make_hooks;
};

}  // namespace caps
