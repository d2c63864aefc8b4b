#include "common/types.hpp"

namespace caps {

std::string format_dim3(const Dim3& d) {
  std::string s(1, '(');
  s += std::to_string(d.x);
  s += ',';
  s += std::to_string(d.y);
  s += ',';
  s += std::to_string(d.z);
  s += ')';
  return s;
}

}  // namespace caps
