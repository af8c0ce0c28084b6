// Integration tests of the transient-slowdown filter (paper §3.3): injected
// slowdowns on a fine-grained workload must be absorbed (reported as
// slowdowns, not hangs), and real hangs must still be confirmed.

#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "faults/injector.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

using workloads::BenchmarkProfile;
using workloads::CommPattern;

/// Fine-grained CG-like solver: sub-100ms phases, so even a slowed rank
/// crosses MPI boundaries within the filter's observation window.
std::shared_ptr<const BenchmarkProfile> fine_solver(int iterations = 6000) {
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->name = "FINE";
  profile->iterations = static_cast<std::uint64_t>(iterations);
  profile->reference_ranks = 32;
  profile->setup_time = sim::from_millis(200);
  profile->phases = {
      {"spmv", sim::from_millis(24), 0.12, CommPattern::kHaloBlocking,
       96 * 1024},
      {"dot", sim::from_millis(4), 0.15, CommPattern::kAllreduce, 16},
  };
  return profile;
}

struct SlowdownRig {
  SlowdownRig(std::uint64_t seed, faults::FaultPlan plan)
      : injector(plan),
        world(make_config(seed),
              injector.wrap(workloads::make_factory(fine_solver()))),
        inspector(world),
        detector(world, inspector, DetectorConfig{}) {
    injector.arm(world);
  }

  static simmpi::WorldConfig make_config(std::uint64_t seed) {
    simmpi::WorldConfig config;
    config.nranks = 32;
    config.platform = sim::Platform::stampede();
    config.seed = seed;
    config.background_slowdowns = false;
    return config;
  }

  void run(sim::Time deadline) {
    world.start();
    detector.start();
    auto& engine = world.engine();
    while (!world.all_finished() && !detector.hang_reported() &&
           engine.now() <= deadline && engine.step()) {
    }
    detector.stop();
  }

  faults::FaultInjector injector;
  simmpi::World world;
  trace::StackInspector inspector;
  HangDetector detector;
};

TEST(SlowdownFilterIntegration, InjectedSlowdownNotReportedAsHang) {
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kTransientSlowdown;
  plan.victim = 11;
  plan.trigger_time = 60 * sim::kSecond;
  plan.slowdown_duration = 12 * sim::kSecond;
  plan.slowdown_factor = 4.0;
  SlowdownRig rig(501, plan);
  rig.run(4 * sim::kMinute);
  EXPECT_FALSE(rig.detector.hang_reported());
  EXPECT_TRUE(rig.injector.record().activated());
}

TEST(SlowdownFilterIntegration, SevereSlowdownsAcrossSeeds) {
  int hang_reports = 0;
  int slowdown_absorptions = 0;
  for (std::uint64_t seed = 600; seed < 606; ++seed) {
    faults::FaultPlan plan;
    plan.type = faults::FaultType::kTransientSlowdown;
    plan.victim = static_cast<simmpi::Rank>(seed % 32);
    plan.trigger_time = 50 * sim::kSecond;
    plan.slowdown_duration = 8 * sim::kSecond;
    plan.slowdown_factor = 3.0;
    SlowdownRig rig(seed, plan);
    rig.run(3 * sim::kMinute);
    if (rig.detector.hang_reported()) ++hang_reports;
    slowdown_absorptions +=
        static_cast<int>(rig.detector.slowdown_reports().size());
  }
  // The paper reports zero false alarms; slowdowns either never reach the
  // verification stage or are absorbed by the filter.
  EXPECT_EQ(hang_reports, 0);
}

TEST(SlowdownFilterIntegration, RealHangSurvivesTheFilter) {
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = 7;
  plan.trigger_time = 60 * sim::kSecond;
  SlowdownRig rig(502, plan);
  rig.run(4 * sim::kMinute);
  ASSERT_TRUE(rig.detector.hang_reported());
  EXPECT_EQ(rig.detector.hang_reports().front().faulty_ranks.size(), 1u);
}

}  // namespace
}  // namespace parastack::core
