// Fixture: std::function as a type alias, a parameter, a local, a function
// type argument and a suppressed member -> no hot-path-function finding.
// Never compiled.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace caps {

using Sink = std::function<void(u32)>;

class Reader {
 public:
  explicit Reader(std::function<bool(u32)> accept) {
    std::function<bool(u32)> local = std::move(accept);
    local(0);
  }
  void visit(const std::function<void(u32)>& f) const { f(0); }
  std::vector<std::function<void(u32)>> sinks() const;

 private:
  Sink sink_;
  std::function<void()> once_;  // capsim-lint: allow(hot-path-function)
  std::function<std::unique_ptr<Reader>(std::function<bool(u32)>)>
      make_;  // capsim-lint: allow(hot-path-function)
};

}  // namespace caps
