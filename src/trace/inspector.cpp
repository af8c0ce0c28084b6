#include "trace/inspector.hpp"

#include <algorithm>

#include "simmpi/stack.hpp"
#include "util/check.hpp"

namespace parastack::trace {

namespace {

/// Spread of the per-trace cost: lognormal around the mean with this
/// coefficient of variation.
constexpr double kTraceCostCv = 0.18;

}  // namespace

bool StackSnapshot::in_test_family() const {
  if (innermost_mpi.empty()) return false;
  using simmpi::MpiFunc;
  for (const MpiFunc f : {MpiFunc::kTest, MpiFunc::kTestany, MpiFunc::kTestsome,
                          MpiFunc::kTestall, MpiFunc::kIprobe}) {
    if (innermost_mpi == simmpi::mpi_func_name(f)) return true;
  }
  return false;
}

StackInspector::StackInspector(simmpi::World& world, Config config)
    : world_(world), config_(config), rng_(config.seed) {}

StackSnapshot StackInspector::trace(simmpi::Rank rank) {
  auto& process = world_.rank(rank);
  StackSnapshot snapshot;
  snapshot.rank = rank;
  snapshot.when = world_.engine().now();
  const auto& frames = process.stack().frames();
  snapshot.frames.reserve(frames.size());
  for (const auto& frame : frames) snapshot.frames.emplace_back(frame.name);
  // §6 rule: a (possibly multi-threaded) process is IN_MPI iff some thread
  // is inside MPI; the innermost MPI frame may live on a worker stack.
  snapshot.in_mpi = process.in_mpi();
  snapshot.innermost_mpi = std::string(process.stack().innermost_mpi_frame());
  for (int worker = 0;
       snapshot.innermost_mpi.empty() && worker + 1 < process.thread_count();
       ++worker) {
    snapshot.innermost_mpi =
        std::string(process.worker_stack(worker).innermost_mpi_frame());
  }

  const double sampled = rng_.lognormal_mean_cv(
      static_cast<double>(config_.trace_cost_mean), kTraceCostCv);
  const auto cost = std::max<sim::Time>(static_cast<sim::Time>(sampled),
                                        sim::from_micros(50));
  process.add_suspension(cost);
  ++traces_;
  charged_ += cost;
  return snapshot;
}

bool StackInspector::trace_out_mpi(simmpi::Rank rank) {
  auto& process = world_.rank(rank);
  const bool in_mpi = process.in_mpi();
  // The cost draw and charge must stay bit-identical to trace(): the
  // sampling path switching to this overload may not perturb any stream.
  const double sampled = rng_.lognormal_mean_cv(
      static_cast<double>(config_.trace_cost_mean), kTraceCostCv);
  const auto cost = std::max<sim::Time>(static_cast<sim::Time>(sampled),
                                        sim::from_micros(50));
  process.add_suspension(cost);
  ++traces_;
  charged_ += cost;
  return !in_mpi;
}

}  // namespace parastack::trace
