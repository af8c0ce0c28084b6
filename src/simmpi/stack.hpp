#pragma once

#include <string_view>
#include <vector>

namespace parastack::simmpi {

/// One stack frame: just a function name, which is all ParaStack's
/// classifier consumes (§5: frames are matched by name prefix).
/// Names must point at storage that outlives the simulation (string
/// literals, mpi_func_name(), or workload-owned interned strings).
struct Frame {
  std::string_view name;
};

/// A simulated call stack, innermost frame last.
class CallStack {
 public:
  void push(std::string_view name) { frames_.push_back(Frame{name}); }
  void pop();
  void clear() { frames_.clear(); }

  const std::vector<Frame>& frames() const noexcept { return frames_; }
  bool empty() const noexcept { return frames_.empty(); }

  /// Paper §5 classification: IN_MPI iff any frame name starts with
  /// "mpi", "MPI", "pmpi" or "PMPI".
  bool in_mpi() const noexcept;

  /// Name of the innermost MPI frame, or empty if none.
  std::string_view innermost_mpi_frame() const noexcept;

 private:
  std::vector<Frame> frames_;
};

/// True iff a single frame name classifies as MPI by the prefix rule.
bool frame_is_mpi(std::string_view name) noexcept;

}  // namespace parastack::simmpi
