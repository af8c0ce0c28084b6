#include "simmpi/stack.hpp"

#include "util/check.hpp"

namespace parastack::simmpi {

bool frame_is_mpi(std::string_view name) noexcept {
  const auto has_prefix = [&](std::string_view prefix) {
    return name.size() >= prefix.size() &&
           name.substr(0, prefix.size()) == prefix;
  };
  return has_prefix("mpi") || has_prefix("MPI") || has_prefix("pmpi") ||
         has_prefix("PMPI");
}

void CallStack::pop() {
  PS_CHECK(!frames_.empty(), "pop of empty call stack");
  frames_.pop_back();
}

bool CallStack::in_mpi() const noexcept {
  // The real tool walks from the innermost frame outwards and stops at the
  // first MPI-prefixed name (§5); presence anywhere is equivalent.
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (frame_is_mpi(it->name)) return true;
  }
  return false;
}

std::string_view CallStack::innermost_mpi_frame() const noexcept {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (frame_is_mpi(it->name)) return it->name;
  }
  return {};
}

}  // namespace parastack::simmpi
