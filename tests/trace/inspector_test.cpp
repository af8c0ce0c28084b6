#include "trace/inspector.hpp"

#include <gtest/gtest.h>

#include "simmpi/action.hpp"
#include "simmpi/world.hpp"

namespace parastack::trace {
namespace {

using simmpi::Action;
using simmpi::Rank;

/// Rank 0 computes forever; rank 1 blocks in a recv that never matches;
/// rank 2 busy-waits forever.
simmpi::ProgramFactory mixed_factory() {
  return [](Rank rank, int, util::Rng) -> std::unique_ptr<simmpi::Program> {
    class P : public simmpi::Program {
     public:
      explicit P(Rank rank) : rank_(rank) {}
      Action next() override {
        if (rank_ == 0) {
          return Action::compute(sim::kMinute, 0.0, "long_compute");
        }
        if (rank_ == 1) return Action::hang_in_mpi(simmpi::MpiFunc::kRecv);
        if (step_++ == 0) return Action::irecv(0, 1, 64);
        return Action::test_loop("busy_spread");
      }

     private:
      Rank rank_;
      int step_ = 0;
    };
    return std::make_unique<P>(rank);
  };
}

simmpi::WorldConfig config3() {
  simmpi::WorldConfig config;
  config.nranks = 3;
  config.platform = sim::Platform::tianhe2();
  config.platform.noise_cv = 0.0;
  config.background_slowdowns = false;
  return config;
}

TEST(StackInspector, SnapshotsClassifyStates) {
  simmpi::World world(config3(), mixed_factory());
  world.start();
  world.engine().run_until(sim::from_millis(50));
  StackInspector inspector(world);

  const auto compute_snapshot = inspector.trace(0);
  EXPECT_FALSE(compute_snapshot.in_mpi);
  EXPECT_TRUE(compute_snapshot.innermost_mpi.empty());
  EXPECT_EQ(compute_snapshot.frames.back(), "long_compute");
  EXPECT_EQ(compute_snapshot.frames.front(), "main");

  const auto blocked_snapshot = inspector.trace(1);
  EXPECT_TRUE(blocked_snapshot.in_mpi);
  EXPECT_FALSE(blocked_snapshot.in_test_family());
}

TEST(StackInspector, BusyWaitTestFamilyDetection) {
  simmpi::World world(config3(), mixed_factory());
  world.start();
  StackInspector inspector(world);
  bool saw_test_family = false;
  for (int i = 0; i < 500 && !saw_test_family; ++i) {
    world.engine().run_until(world.engine().now() + sim::from_micros(40));
    const auto snapshot = inspector.trace(2);
    if (snapshot.in_mpi && snapshot.in_test_family()) saw_test_family = true;
  }
  EXPECT_TRUE(saw_test_family);
}

TEST(StackSnapshot, InTestFamilyTable) {
  // §3.3's busy-wait list, read off the innermost MPI frame's name.
  const struct {
    const char* innermost_mpi;
    bool in_test_family;
  } rows[] = {
      {"MPI_Test", true},    {"MPI_Testany", true},    {"MPI_Testsome", true},
      {"MPI_Testall", true}, {"MPI_Iprobe", true},     {"MPI_Wait", false},
      {"MPI_Recv", false},   {"MPI_Allreduce", false}, {"", false},
  };
  for (const auto& row : rows) {
    StackSnapshot snapshot;
    snapshot.innermost_mpi = row.innermost_mpi;
    EXPECT_EQ(snapshot.in_test_family(), row.in_test_family)
        << "'" << row.innermost_mpi << "'";
  }
}

TEST(StackSnapshot, InTestFamilyReadsAWorkersInnermostMpiFrame) {
  // Hybrid MPI_THREAD_MULTIPLE ranks: the first blocking call runs on the
  // master, the second on worker 0, while the master overlaps compute. The
  // snapshot takes its innermost MPI frame from the worker's stack (§6),
  // and a blocked call there is no busy-wait.
  simmpi::WorldConfig config = config3();
  config.nranks = 2;
  config.threads_per_rank = 2;
  config.mpi_thread_multiple = true;
  const auto factory = [](Rank, int,
                          util::Rng) -> std::unique_ptr<simmpi::Program> {
    class P : public simmpi::Program {
     public:
      Action next() override {
        if (step_++ == 0) {
          return Action::collective(Action::Kind::kBarrier, 0);
        }
        return Action::hang_in_mpi(simmpi::MpiFunc::kRecv);
      }

     private:
      int step_ = 0;
    };
    return std::make_unique<P>();
  };
  simmpi::World world(config, factory);
  world.start();
  world.engine().run_until(sim::from_millis(50));
  const auto& rank = world.rank(0);
  ASSERT_FALSE(rank.stack().in_mpi());
  ASSERT_TRUE(rank.worker_stack(0).in_mpi());

  StackInspector inspector(world);
  const auto snapshot = inspector.trace(0);
  EXPECT_TRUE(snapshot.in_mpi);
  EXPECT_EQ(snapshot.innermost_mpi, rank.worker_stack(0).innermost_mpi_frame());
  EXPECT_FALSE(snapshot.in_test_family());
}

TEST(StackInspector, ChargesComputingTargets) {
  simmpi::World world(config3(), mixed_factory());
  world.start();
  world.engine().run_until(sim::from_millis(10));
  StackInspector::Config config;
  config.trace_cost_mean = sim::from_millis(3);
  StackInspector inspector(world, config);
  EXPECT_EQ(inspector.traces(), 0u);
  inspector.trace(0);
  inspector.trace(0);
  EXPECT_EQ(inspector.traces(), 2u);
  EXPECT_GE(inspector.total_cost_charged(), sim::from_millis(5));
}

TEST(StackInspector, TraceCostCalibratedToTable3) {
  // Paper Table 3: ~18220 traces cost 50.88 s -> ~2.8 ms per trace.
  const StackInspector::Config config;
  const double per_trace_ms = sim::to_millis(config.trace_cost_mean);
  EXPECT_NEAR(per_trace_ms, 50.88e3 / 18220.0, 0.3);
}

TEST(StackInspector, SnapshotTimestamps) {
  simmpi::World world(config3(), mixed_factory());
  world.start();
  world.engine().run_until(sim::from_millis(7));
  StackInspector inspector(world);
  const auto snapshot = inspector.trace(1);
  EXPECT_EQ(snapshot.when, world.engine().now());
  EXPECT_EQ(snapshot.rank, 1);
}

}  // namespace
}  // namespace parastack::trace
