#include "core/timeout_detector.hpp"

#include <gtest/gtest.h>

#include "faults/injector.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

using workloads::BenchmarkProfile;
using workloads::CommPattern;

std::shared_ptr<const BenchmarkProfile> steady_solver() {
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->iterations = 3000;
  profile->reference_ranks = 16;
  profile->setup_time = sim::from_millis(100);
  profile->phases = {
      {"sweep", sim::from_millis(30), 0.15, CommPattern::kHaloBlocking,
       128 * 1024},
      {"norm", sim::from_millis(5), 0.1, CommPattern::kAllreduce, 64},
  };
  return profile;
}

/// FT-like: long compute blocks followed by multi-second alltoalls whose
/// low-S_out stretches defeat small fixed timeouts (paper Table 1).
std::shared_ptr<const BenchmarkProfile> bursty_solver() {
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->iterations = 60;
  profile->reference_ranks = 16;
  profile->setup_time = sim::from_millis(100);
  profile->phases = {
      {"fft_chunk", 3 * sim::kSecond, 0.05, CommPattern::kAlltoall,
       std::size_t{3} * 1024 * 1024 * 1024},
  };
  return profile;
}

simmpi::WorldConfig world_config(std::uint64_t seed) {
  simmpi::WorldConfig config;
  config.nranks = 16;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

TimeoutDetector::Config baseline_config(sim::Time interval, int k) {
  TimeoutDetector::Config config;
  config.interval = interval;
  config.k = k;
  return config;
}

TEST(TimeoutDetector, DetectsARealHang) {
  // Pick a victim the baseline does NOT monitor: with the faulty (OUT_MPI)
  // rank inside its one fixed set, S_crout never reaches zero and the
  // baseline misses — the corner case ParaStack's set alternation fixes.
  simmpi::World probe_world(world_config(5),
                            workloads::make_factory(steady_solver()));
  trace::StackInspector probe_inspector(probe_world);
  TimeoutDetector probe(probe_world, probe_inspector,
                        baseline_config(sim::from_millis(400), 5));
  simmpi::Rank victim = -1;
  for (simmpi::Rank r = 0; r < 16; ++r) {
    bool monitored = false;
    for (const auto m : probe.monitored()) {
      if (m == r) monitored = true;
    }
    if (!monitored) {
      victim = r;
      break;
    }
  }
  ASSERT_GE(victim, 0);

  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = victim;
  plan.trigger_time = 20 * sim::kSecond;
  faults::FaultInjector injector(plan);
  simmpi::World world(world_config(5),
                      injector.wrap(workloads::make_factory(steady_solver())));
  injector.arm(world);
  trace::StackInspector inspector(world);
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(400), 5));
  world.start();
  detector.start();
  auto& engine = world.engine();
  while (!detector.hang_reported() && engine.now() < 2 * sim::kMinute &&
         engine.step()) {
  }
  ASSERT_TRUE(detector.hang_reported());
  const auto detected_at = detector.reports().front().detected_at;
  EXPECT_GT(detected_at, injector.record().activated_at);
  // Roughly K * I after the hang (paper Table 1's delay column).
  EXPECT_LT(sim::to_seconds(detected_at - injector.record().activated_at),
            15.0);
}

TEST(TimeoutDetector, SmallTimeoutFalseAlarmsOnBurstyApp) {
  // (I=400ms, K=5) fires during a healthy multi-second alltoall.
  simmpi::World world(world_config(6),
                      workloads::make_factory(bursty_solver()));
  trace::StackInspector inspector(world);
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(400), 5));
  world.start();
  detector.start();
  auto& engine = world.engine();
  while (!detector.hang_reported() && !world.all_finished() && engine.step()) {
  }
  EXPECT_TRUE(detector.hang_reported());  // false alarm: no fault exists
}

TEST(TimeoutDetector, LargeTimeoutSurvivesBurstyApp) {
  simmpi::World world(world_config(6),
                      workloads::make_factory(bursty_solver()));
  trace::StackInspector inspector(world);
  // K * I = 8s exceeds the app's low stretches.
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(800), 10));
  world.start();
  detector.start();
  auto& engine = world.engine();
  while (!detector.hang_reported() && !world.all_finished() &&
         engine.now() < 5 * sim::kMinute && engine.step()) {
  }
  EXPECT_FALSE(detector.hang_reported());
}

TEST(TimeoutDetector, StreakResetsOnHealthyObservation) {
  simmpi::World world(world_config(7),
                      workloads::make_factory(steady_solver()));
  trace::StackInspector inspector(world);
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(400), 5));
  world.start();
  detector.start();
  auto& engine = world.engine();
  for (int i = 0; i < 200000 && !world.all_finished(); ++i) {
    if (!engine.step()) break;
    if (engine.now() > 30 * sim::kSecond) break;
  }
  EXPECT_FALSE(detector.hang_reported());
}

TEST(TimeoutDetector, NoReportAfterJobCompletion) {
  // A finished job cannot hang. Once every rank completed, each rank sits
  // in MPI_Finalize and reads as IN_MPI, so every observation counts as
  // "low" and a tick that still fires would walk the streak to a bogus
  // post-completion detection — the tick must check all_finished().
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->iterations = 5;
  profile->reference_ranks = 16;
  profile->setup_time = sim::from_millis(10);
  profile->phases = {
      {"blip", sim::from_millis(5), 0.1, CommPattern::kAllreduce, 64},
  };
  simmpi::World world(world_config(11), workloads::make_factory(profile));
  trace::StackInspector inspector(world);
  // The job ends before the first tick.
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(200), 3));
  world.start();
  detector.start();
  auto& engine = world.engine();
  while (engine.step()) {  // drain everything, detector ticks included
  }
  EXPECT_TRUE(world.all_finished());
  EXPECT_FALSE(detector.hang_reported());
}

TEST(TimeoutDetector, DetectsExactlyAtStreakK) {
  // A deadlock from the first MPI call blocks every rank inside MPI well
  // before the first tick, so every sample is suspicious and the K-th tick —
  // and exactly the K-th — must produce the report: detection at K * I.
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kCommDeadlock;
  plan.victim = 0;
  faults::FaultInjector injector(plan);
  simmpi::World world(world_config(12),
                      injector.wrap(workloads::make_factory(steady_solver())));
  injector.arm(world);
  trace::StackInspector inspector(world);
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(500), 4));
  world.start();
  detector.start();
  auto& engine = world.engine();
  while (!detector.hang_reported() && engine.now() < 30 * sim::kSecond &&
         engine.step()) {
  }
  ASSERT_TRUE(detector.hang_reported());
  EXPECT_EQ(detector.reports().front().detected_at, 4 * sim::from_millis(500));
  EXPECT_EQ(detector.reports().size(), 1u);  // done_: no second report
}

TEST(TimeoutDetector, RearmsAfterTransientLowStretchAndStillDetects) {
  // Bursty alltoalls advance the streak part-way; the compute stretches
  // reset it (re-arm). The config that survives the healthy app
  // (LargeTimeoutSurvivesBurstyApp) must still catch a real hang injected
  // later — a reset streak is re-armed, not disarmed.
  simmpi::World probe_world(world_config(6),
                            workloads::make_factory(bursty_solver()));
  trace::StackInspector probe_inspector(probe_world);
  TimeoutDetector probe(probe_world, probe_inspector,
                        baseline_config(sim::from_millis(800), 10));
  simmpi::Rank victim = -1;
  for (simmpi::Rank r = 0; r < 16; ++r) {
    bool monitored = false;
    for (const auto m : probe.monitored()) {
      if (m == r) monitored = true;
    }
    if (!monitored) {
      victim = r;
      break;
    }
  }
  ASSERT_GE(victim, 0);

  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = victim;
  plan.trigger_time = 40 * sim::kSecond;
  faults::FaultInjector injector(plan);
  simmpi::World world(world_config(6),
                      injector.wrap(workloads::make_factory(bursty_solver())));
  injector.arm(world);
  trace::StackInspector inspector(world);
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(800), 10));
  world.start();
  detector.start();
  auto& engine = world.engine();
  while (!detector.hang_reported() && engine.now() < 5 * sim::kMinute &&
         engine.step()) {
  }
  ASSERT_TRUE(detector.hang_reported());
  const auto detected_at = detector.reports().front().detected_at;
  const auto activated_at = injector.record().activated_at;
  EXPECT_GT(detected_at, activated_at);
  // The full streak must have been rebuilt after the fault: at least K
  // intervals of post-fault silence before the verdict.
  EXPECT_GE(detected_at - activated_at, 10 * sim::from_millis(800));
}

TEST(TimeoutDetector, StopPreventsFurtherReports) {
  simmpi::World world(world_config(8),
                      workloads::make_factory(bursty_solver()));
  trace::StackInspector inspector(world);
  TimeoutDetector detector(world, inspector,
                           baseline_config(sim::from_millis(400), 5));
  world.start();
  detector.start();
  detector.stop();
  world.engine().run_until(30 * sim::kSecond);
  EXPECT_FALSE(detector.hang_reported());
}

}  // namespace
}  // namespace parastack::core
