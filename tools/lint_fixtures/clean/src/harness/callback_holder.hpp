// Fixture: a std::function member outside the simulator component
// directories -> no hot-path-function finding. Never compiled.
#pragma once

#include <functional>

namespace caps {

struct RunHooks {
  std::function<void(int)> pre_run_hook;
};

}  // namespace caps
