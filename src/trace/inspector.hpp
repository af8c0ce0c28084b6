#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "simmpi/types.hpp"
#include "simmpi/world.hpp"
#include "util/rng.hpp"

namespace parastack::trace {

/// One observed call stack, as ParaStack's monitor sees it after a
/// ptrace attach + libunwind walk (§5 of the paper).
struct StackSnapshot {
  simmpi::Rank rank = -1;
  sim::Time when = 0;
  std::vector<std::string> frames;  ///< outermost first
  bool in_mpi = false;              ///< prefix-rule classification
  std::string innermost_mpi;        ///< e.g. "MPI_Allreduce"; empty if none

  /// Paper §3.3: the busy-wait exception list. A process stepping in and
  /// out of the Test family (MPI_Test, MPI_Testany, MPI_Testsome,
  /// MPI_Testall and MPI_Iprobe), and only these, is treated as staying
  /// inside MPI by the transient-slowdown filter. True when the innermost
  /// MPI frame is one of them.
  bool in_test_family() const;
};

/// Simulated ptrace/libunwind stack walker.
///
/// The essential physics: walking a stack requires stopping the target, so
/// every trace charges the target process a suspension. The default cost is
/// calibrated to the paper's Table 3 (HPL single process: 18220 traces cost
/// 50.88 s => ~2.8 ms per trace, attach + unwind + symbol resolution).
/// Ranks blocked inside MPI lose nothing — they were waiting anyway.
class StackInspector {
 public:
  struct Config {
    sim::Time trace_cost_mean = sim::from_micros(2790);
    std::uint64_t seed = 0x7a57ed5eedULL;
  };

  explicit StackInspector(simmpi::World& world)
      : StackInspector(world, Config{}) {}
  StackInspector(simmpi::World& world, Config config);

  /// Snapshot one rank's stack (charging it the trace cost).
  StackSnapshot trace(simmpi::Rank rank);

  /// Allocation-free fast path for the S_crout sampling sweep: classifies
  /// the rank and charges the identical ptrace suspension — same RNG
  /// draw, same cost floor, same counters as trace() — without
  /// materializing the frame strings nobody reads on this path. Returns
  /// true when the rank is OUT of MPI.
  bool trace_out_mpi(simmpi::Rank rank);

  /// Total traces performed (paper Table 3's n).
  std::uint64_t traces() const noexcept { return traces_; }
  /// Total suspension charged to targets (paper Table 3's O_t).
  sim::Time total_cost_charged() const noexcept { return charged_; }

 private:
  simmpi::World& world_;
  Config config_;
  util::Rng rng_;
  std::uint64_t traces_ = 0;
  sim::Time charged_ = 0;
};

}  // namespace parastack::trace
