// Hybrid MPI+threads mode (paper §6 "Multi-threaded MPI program"): the
// process-state rule becomes "IN_MPI iff some thread is inside MPI", and
// hang detection keeps working for both FUNNELED and MULTIPLE levels.

#include <gtest/gtest.h>

#include <deque>

#include "core/detector.hpp"
#include "faults/injector.hpp"
#include "simmpi/world.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::simmpi {
namespace {

std::shared_ptr<const workloads::BenchmarkProfile> hybrid_profile(
    int iterations = 3000) {
  auto profile = std::make_shared<workloads::BenchmarkProfile>();
  profile->name = "HYBRID";
  profile->iterations = static_cast<std::uint64_t>(iterations);
  profile->reference_ranks = 16;
  profile->setup_time = sim::from_millis(100);
  profile->phases = {
      {"omp_region_sweep", sim::from_millis(30), 0.15,
       workloads::CommPattern::kHaloBlocking, 128 * 1024},
      {"omp_region_norm", sim::from_millis(5), 0.1,
       workloads::CommPattern::kAllreduce, 16},
  };
  return profile;
}

WorldConfig hybrid_config(bool multiple, std::uint64_t seed = 61) {
  WorldConfig config;
  config.nranks = 16;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  config.threads_per_rank = 4;
  config.mpi_thread_multiple = multiple;
  return config;
}

TEST(HybridRank, ThreadCountConfigured) {
  World world(hybrid_config(false), workloads::make_factory(hybrid_profile()));
  EXPECT_EQ(world.rank(0).thread_count(), 4);
  const auto& frames = world.rank(0).worker_stack(0).frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].name, "omp_worker_entry");
  EXPECT_EQ(frames[1].name, "omp_idle_spin");
}

TEST(HybridRank, WorkersJoinComputeRegions) {
  World world(hybrid_config(false), workloads::make_factory(hybrid_profile()));
  world.start();
  world.engine().run_until(5 * sim::kSecond);
  // Find a computing rank and check all threads show the user function.
  bool checked = false;
  for (Rank r = 0; r < 16; ++r) {
    const auto& rank = world.rank(r);
    if (rank.status() == RankStatus::kComputing) {
      EXPECT_FALSE(rank.in_mpi());
      for (int w = 0; w < 3; ++w) {
        EXPECT_EQ(rank.worker_stack(w).frames().back().name,
                  rank.stack().frames().back().name);
      }
      checked = true;
      break;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(HybridRank, FunneledKeepsMpiOnMaster) {
  World world(hybrid_config(false), workloads::make_factory(hybrid_profile()));
  world.start();
  bool saw_blocked = false;
  for (int step = 0; step < 300000 && !saw_blocked; ++step) {
    if (!world.engine().step()) break;
    for (Rank r = 0; r < 16; ++r) {
      const auto& rank = world.rank(r);
      if (rank.status() == RankStatus::kInMpiBlocked) {
        saw_blocked = true;
        EXPECT_TRUE(rank.stack().in_mpi());  // master holds the MPI frames
        for (int w = 0; w < 3; ++w) {
          EXPECT_FALSE(rank.worker_stack(w).in_mpi());
        }
        EXPECT_TRUE(rank.in_mpi());
        break;
      }
    }
  }
  EXPECT_TRUE(saw_blocked);
}

TEST(HybridRank, MultipleModeRotatesCommAcrossThreads) {
  World world(hybrid_config(true), workloads::make_factory(hybrid_profile()));
  world.start();
  bool saw_worker_comm = false;
  bool saw_master_comm = false;
  for (int step = 0; step < 600000 && !(saw_worker_comm && saw_master_comm);
       ++step) {
    if (!world.engine().step()) break;
    for (Rank r = 0; r < 16; ++r) {
      const auto& rank = world.rank(r);
      if (rank.status() != RankStatus::kInMpiBlocked) continue;
      if (rank.stack().in_mpi()) saw_master_comm = true;
      for (int w = 0; w < 3; ++w) {
        if (rank.worker_stack(w).in_mpi()) {
          saw_worker_comm = true;
          // §6 rule: the process is IN_MPI even though the master thread
          // is out in overlap compute.
          EXPECT_FALSE(rank.stack().in_mpi());
          EXPECT_TRUE(rank.in_mpi());
        }
      }
    }
  }
  EXPECT_TRUE(saw_worker_comm);
  EXPECT_TRUE(saw_master_comm);
}

TEST(HybridRank, HangDetectionWorksInMultipleMode) {
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = 11;
  plan.trigger_time = 30 * sim::kSecond;
  faults::FaultInjector injector(plan);
  World world(hybrid_config(true, 62),
              injector.wrap(workloads::make_factory(hybrid_profile())));
  injector.arm(world);
  trace::StackInspector inspector(world);
  core::HangDetector detector(world, inspector, core::DetectorConfig{});
  world.start();
  detector.start();
  auto& engine = world.engine();
  while (!detector.hang_reported() && engine.now() < 4 * sim::kMinute &&
         engine.step()) {
  }
  ASSERT_TRUE(detector.hang_reported());
  const auto& report = detector.hang_reports().front();
  EXPECT_EQ(report.kind, core::HangKind::kComputationError);
  ASSERT_EQ(report.faulty_ranks.size(), 1u);
  EXPECT_EQ(report.faulty_ranks[0], 11);
}

TEST(HybridRankDeath, ConfigureAfterStartRejected) {
  World world(hybrid_config(false), workloads::make_factory(hybrid_profile()));
  world.start();
  world.engine().run_until(sim::kMillisecond);
  EXPECT_DEATH(world.rank(0).configure_threads(2, false), "before start");
}

}  // namespace
}  // namespace parastack::simmpi
