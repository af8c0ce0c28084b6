#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "faults/injector.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

using workloads::BenchmarkProfile;
using workloads::CommPattern;

/// A small iterative workload with enough MPI time (~15-25%) for a healthy
/// S_crout distribution: compute + halo + allreduce per iteration.
std::shared_ptr<const BenchmarkProfile> mini_solver(int iterations = 4000) {
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->name = "MINI";
  profile->iterations = static_cast<std::uint64_t>(iterations);
  profile->reference_ranks = 16;
  profile->setup_time = sim::from_millis(200);
  profile->phases = {
      {"mini_sweep", sim::from_millis(35), 0.20, CommPattern::kHaloBlocking,
       256 * 1024},
      {"mini_norm", sim::from_millis(6), 0.15, CommPattern::kAllreduce, 64},
  };
  return profile;
}

simmpi::WorldConfig world_config(int nranks, std::uint64_t seed) {
  simmpi::WorldConfig config;
  config.nranks = nranks;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

DetectorConfig detector_config() {
  DetectorConfig config;
  config.seed = 4242;
  return config;
}

struct Rig {
  Rig(int nranks, std::uint64_t seed, faults::FaultPlan plan,
      DetectorConfig det_config,
      std::shared_ptr<const BenchmarkProfile> profile)
      : injector(plan),
        world(world_config(nranks, seed),
              injector.wrap(workloads::make_factory(std::move(profile)))),
        inspector(world),
        detector(world, inspector, det_config) {
    injector.arm(world);
  }

  /// Run until completion, detection, or the deadline.
  void run(sim::Time deadline) {
    world.start();
    detector.start();
    auto& engine = world.engine();
    while (!world.all_finished() && !detector.hang_reported() &&
           engine.now() <= deadline) {
      if (!engine.step()) break;
    }
    detector.stop();
  }

  faults::FaultInjector injector;
  simmpi::World world;
  trace::StackInspector inspector;
  HangDetector detector;
};

faults::FaultPlan hang_plan(simmpi::Rank victim, sim::Time trigger) {
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = victim;
  plan.trigger_time = trigger;
  return plan;
}

TEST(HangDetector, DetectsComputeHangAndPinpointsVictim) {
  Rig rig(16, 77, hang_plan(9, 40 * sim::kSecond), detector_config(),
          mini_solver());
  rig.run(5 * sim::kMinute);
  ASSERT_TRUE(rig.detector.hang_reported());
  const auto& report = rig.detector.hang_reports().front();
  EXPECT_EQ(report.kind, HangKind::kComputationError);
  ASSERT_EQ(report.faulty_ranks.size(), 1u);
  EXPECT_EQ(report.faulty_ranks[0], 9);
  // Detected after the fault, within a sane delay.
  EXPECT_GT(report.detected_at, rig.injector.record().activated_at);
  const double delay =
      sim::to_seconds(report.detected_at - rig.injector.record().activated_at);
  EXPECT_LT(delay, 90.0);
}

TEST(HangDetector, DetectsCommDeadlockAsCommunicationError) {
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kCommDeadlock;
  plan.victim = 4;
  plan.trigger_time = 40 * sim::kSecond;
  Rig rig(16, 78, plan, detector_config(), mini_solver());
  rig.run(5 * sim::kMinute);
  ASSERT_TRUE(rig.detector.hang_reported());
  const auto& report = rig.detector.hang_reports().front();
  EXPECT_EQ(report.kind, HangKind::kCommunicationError);
  EXPECT_TRUE(report.faulty_ranks.empty());
}

TEST(HangDetector, FreezeOutsideMonitorSetsDetectedAndAttributed) {
  // Freeze the ranks NOT covered by either monitor set — the situation a
  // node freeze at real scale almost always produces (only a constant
  // number of ranks are monitored). The frozen ranks park OUT_MPI, the
  // rest of the job blocks, S_crout drops to zero, and the full-sweep
  // identification names the frozen ranks.
  Rig rig(24, 79, faults::FaultPlan{}, detector_config(), mini_solver());
  std::vector<simmpi::Rank> frozen;
  for (simmpi::Rank r = 0; r < 24; ++r) {
    const auto& set0 = rig.detector.monitor_set(0);
    const auto& set1 = rig.detector.monitor_set(1);
    if (std::find(set0.begin(), set0.end(), r) == set0.end() &&
        std::find(set1.begin(), set1.end(), r) == set1.end()) {
      frozen.push_back(r);
    }
  }
  ASSERT_EQ(frozen.size(), 4u);  // 24 ranks - 2 sets of C = 10
  rig.world.engine().schedule_at(40 * sim::kSecond, [&rig, frozen] {
    for (const auto r : frozen) rig.world.rank(r).freeze();
  });
  rig.run(5 * sim::kMinute);
  ASSERT_TRUE(rig.detector.hang_reported());
  const auto& report = rig.detector.hang_reports().front();
  EXPECT_EQ(report.kind, HangKind::kComputationError);
  ASSERT_FALSE(report.faulty_ranks.empty());
  for (const auto r : report.faulty_ranks) {
    EXPECT_NE(std::find(frozen.begin(), frozen.end(), r), frozen.end())
        << "rank " << r << " reported faulty but was not frozen";
  }
}

TEST(HangDetector, CleanRunStaysQuiet) {
  Rig rig(16, 80, faults::FaultPlan{}, detector_config(), mini_solver(2500));
  rig.run(10 * sim::kMinute);
  EXPECT_TRUE(rig.world.all_finished());
  EXPECT_FALSE(rig.detector.hang_reported());
}

TEST(HangDetector, MonitorSetsAreDisjointAndSizedC) {
  Rig rig(32, 81, faults::FaultPlan{}, detector_config(), mini_solver());
  const auto& set0 = rig.detector.monitor_set(0);
  const auto& set1 = rig.detector.monitor_set(1);
  EXPECT_EQ(set0.size(), std::size_t{kMonitoredCount});
  EXPECT_EQ(set1.size(), std::size_t{kMonitoredCount});
  for (const auto r : set0) {
    EXPECT_EQ(std::count(set1.begin(), set1.end(), r), 0) << "rank " << r;
  }
}

TEST(HangDetector, SmallWorldSplitsSets) {
  // C = 10 is bigger than nranks/2.
  Rig rig(8, 82, faults::FaultPlan{}, detector_config(), mini_solver());
  EXPECT_EQ(rig.detector.monitor_set(0).size(), 4u);
  EXPECT_EQ(rig.detector.monitor_set(1).size(), 4u);
}

TEST(HangDetector, AlternatesMonitorSetsEvery30Observations) {
  Rig rig(16, 83, faults::FaultPlan{}, detector_config(), mini_solver());
  rig.world.start();
  rig.detector.start();
  auto& engine = rig.world.engine();
  int flips = 0;
  int last_set = rig.detector.active_set();
  std::size_t last_obs = 0;
  while (rig.detector.observations() < 95 && engine.step()) {
    if (rig.detector.active_set() != last_set) {
      ++flips;
      const auto obs = rig.detector.observations();
      EXPECT_EQ((obs - last_obs) % 30, 0u);
      last_obs = obs;
      last_set = rig.detector.active_set();
    }
  }
  EXPECT_GE(flips, 3);
}

TEST(HangDetector, AlternationOffIsAnAblation) {
  DetectorConfig config = detector_config();
  config.enable_set_alternation = false;
  Rig rig(16, 84, faults::FaultPlan{}, config, mini_solver());
  rig.world.start();
  rig.detector.start();
  auto& engine = rig.world.engine();
  while (rig.detector.observations() < 70 && engine.step()) {
  }
  EXPECT_EQ(rig.detector.active_set(), 0);
}

TEST(HangDetector, RandomnessGateBlocksEarlyDetection) {
  // Until the runs test accepts the sampling, no hang may be reported even
  // if the ladder is numerically ready.
  Rig rig(16, 85, hang_plan(3, 5 * sim::kSecond), detector_config(),
          mini_solver());
  rig.world.start();
  rig.detector.start();
  auto& engine = rig.world.engine();
  while (!rig.detector.hang_reported() && engine.now() < 4 * sim::kMinute &&
         engine.step()) {
    if (!rig.detector.randomness_confirmed()) {
      EXPECT_FALSE(rig.detector.hang_reported());
    }
  }
}

TEST(HangDetector, SuspicionStreakResetsOnHealthySample) {
  Rig rig(16, 86, faults::FaultPlan{}, detector_config(), mini_solver(2500));
  rig.run(10 * sim::kMinute);
  // Over a clean run the streak must never reach the reporting threshold.
  EXPECT_FALSE(rig.detector.hang_reported());
  const auto decision = rig.detector.current_decision();
  if (decision.ready) {
    EXPECT_LT(rig.detector.streak(), decision.k);
  }
}

TEST(HangDetector, ModelGrowsAndTightensOverTime) {
  Rig rig(16, 87, faults::FaultPlan{}, detector_config(), mini_solver(2500));
  rig.run(10 * sim::kMinute);
  EXPECT_GT(rig.detector.model().size(), 100u);
  const auto decision = rig.detector.current_decision();
  ASSERT_TRUE(decision.ready);
  EXPECT_LE(decision.tolerance, 0.1);  // enough samples for a tight level
}

TEST(HangDetector, IntervalCapRespected) {
  // A profile whose S_crout is as regular as it gets: it never enters MPI,
  // so every sample reads 1, the runs test sees one side only and rejects
  // randomness on every batch, and I doubles until the cap stops it.
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->iterations = 100;
  profile->reference_ranks = 16;
  profile->setup_time = 0;
  profile->phases = {
      {"block_compute", 10 * sim::kSecond, 0.01, CommPattern::kNone, 0},
  };
  Rig rig(16, 88, faults::FaultPlan{}, detector_config(), profile);
  rig.world.start();
  rig.detector.start();
  auto& engine = rig.world.engine();
  sim::Time widest = 0;
  while (engine.now() < 8 * sim::kMinute && engine.step()) {
    widest = std::max(widest, rig.detector.interval());
  }
  // The doubling climbs to the cap and stops there; the next rejection
  // proceeds without confirmed randomness instead of doubling again.
  EXPECT_EQ(widest, IntervalTuner::kMaxInterval);
  EXPECT_EQ(rig.detector.interval(), IntervalTuner::kMaxInterval);
  EXPECT_TRUE(rig.detector.randomness_confirmed());
}

TEST(HangDetectorDeath, ConfigValidation) {
  DetectorConfig bad = detector_config();
  bad.alpha = 0.0;
  auto profile = mini_solver();
  simmpi::World world(world_config(8, 1), workloads::make_factory(profile));
  trace::StackInspector inspector(world);
  EXPECT_DEATH(HangDetector(world, inspector, bad), "alpha in \\(0,1\\)");
}

}  // namespace
}  // namespace parastack::core
