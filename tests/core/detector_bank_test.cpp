// DetectorBank: several Detector implementations attached to ONE simulated
// job, started and stopped together, with telemetry-label collisions
// resolved at add() time. This is what lets a single trial compare the
// paper's tool against the timeout strawman and the IO-Watchdog incumbent
// without re-simulating.

#include "core/detector_bank.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/detector.hpp"
#include "core/io_watchdog.hpp"
#include "core/timeout_detector.hpp"
#include "faults/injector.hpp"
#include "trace/inspector.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

using workloads::BenchmarkProfile;
using workloads::CommPattern;

/// A mini solver that also writes output (so the IO-Watchdog has a pulse
/// to monitor), long enough to outlive a 40 s fault trigger.
std::shared_ptr<const BenchmarkProfile> writing_solver() {
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->name = "MINI";
  profile->iterations = 4000;
  profile->reference_ranks = 16;
  profile->setup_time = sim::from_millis(200);
  profile->output_every = 5;
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

DetectorConfig parastack_config() {
  DetectorConfig config;
  config.seed = 4242;
  return config;
}

faults::FaultPlan hang_plan(simmpi::Rank victim, sim::Time trigger) {
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = victim;
  plan.trigger_time = trigger;
  return plan;
}

/// One hanging job watched by all three detector kinds at once.
struct BankRig {
  BankRig(std::uint64_t seed, faults::FaultPlan plan)
      : injector(plan),
        world(world_config(16, seed),
              injector.wrap(workloads::make_factory(writing_solver()))),
        inspector(world) {
    bank.add(
        std::make_unique<HangDetector>(world, inspector, parastack_config()));
    bank.add(std::make_unique<TimeoutDetector>(world, inspector,
                                               TimeoutDetector::Config{}));
    IoWatchdog::Config watchdog;
    watchdog.timeout = 60 * sim::kSecond;
    watchdog.poll_interval = 5 * sim::kSecond;
    bank.add(std::make_unique<IoWatchdog>(world, watchdog));
    injector.arm(world);
  }

  bool all_detected() const {
    for (std::size_t i = 0; i < bank.size(); ++i) {
      if (!bank.at(i).detected()) return false;
    }
    return true;
  }

  void run(sim::Time deadline) {
    world.start();
    bank.start_all();
    auto& engine = world.engine();
    while (!world.all_finished() && !all_detected() &&
           engine.now() <= deadline) {
      if (!engine.step()) break;
    }
    bank.stop_all();
  }

  faults::FaultInjector injector;
  simmpi::World world;
  trace::StackInspector inspector;
  DetectorBank bank;
};

TEST(DetectorBank, PreservesAttachmentOrderAndKinds) {
  BankRig rig(91, faults::FaultPlan{});
  ASSERT_EQ(rig.bank.size(), 3u);
  EXPECT_FALSE(rig.bank.empty());
  EXPECT_EQ(rig.bank.at(0).kind(), DetectorKind::kParastack);
  EXPECT_EQ(rig.bank.at(1).kind(), DetectorKind::kTimeout);
  EXPECT_EQ(rig.bank.at(2).kind(), DetectorKind::kIoWatchdog);
}

TEST(DetectorBank, DefaultLabelsAreTheKindNames) {
  BankRig rig(91, faults::FaultPlan{});
  EXPECT_EQ(rig.bank.at(0).label(), "parastack");
  EXPECT_EQ(rig.bank.at(1).label(), "timeout");
  EXPECT_EQ(rig.bank.at(2).label(), "io-watchdog");
}

TEST(DetectorBank, UniquifiesCollidingLabels) {
  simmpi::World world(world_config(16, 92),
                      workloads::make_factory(writing_solver()));
  trace::StackInspector inspector(world);
  DetectorBank bank;
  bank.add(
      std::make_unique<HangDetector>(world, inspector, parastack_config()));
  bank.add(
      std::make_unique<HangDetector>(world, inspector, parastack_config()));
  bank.add(
      std::make_unique<HangDetector>(world, inspector, parastack_config()));
  EXPECT_EQ(bank.at(0).label(), "parastack");
  EXPECT_EQ(bank.at(1).label(), "parastack#2");
  EXPECT_EQ(bank.at(2).label(), "parastack#3");
}

TEST(DetectorBank, ThreeKindsJudgeTheSameHangingTrial) {
  BankRig rig(93, hang_plan(9, 40 * sim::kSecond));
  rig.run(10 * sim::kMinute);
  ASSERT_TRUE(rig.injector.record().activated());
  const sim::Time fault_at = rig.injector.record().activated_at;
  for (std::size_t i = 0; i < rig.bank.size(); ++i) {
    const Detector& detector = rig.bank.at(i);
    ASSERT_TRUE(detector.detected()) << detector.label() << " missed the hang";
    const Detection& first = detector.detections().front();
    EXPECT_EQ(first.kind, detector.kind());
    EXPECT_GT(first.detected_at, fault_at)
        << detector.label() << " fired before the fault";
  }
  // The watchdog's verdict carries its silence evidence; at a 60 s timeout
  // it is the slowest of the three.
  ASSERT_EQ(rig.bank.at(0).kind(), DetectorKind::kParastack);
  ASSERT_EQ(rig.bank.at(2).kind(), DetectorKind::kIoWatchdog);
  const Detection& watchdog = rig.bank.at(2).detections().front();
  EXPECT_GE(watchdog.silence, 60 * sim::kSecond);
  EXPECT_GE(watchdog.detected_at,
            rig.bank.at(0).detections().front().detected_at);
}

TEST(DetectorBank, OnDetectionHookFiresPerVerdict) {
  BankRig rig(93, hang_plan(9, 40 * sim::kSecond));
  int primary_verdicts = 0;
  sim::Time first_kill = 0;
  rig.bank.at(0).on_detection = [&](const Detection& detection) {
    if (primary_verdicts++ == 0) first_kill = detection.detected_at;
  };
  rig.run(10 * sim::kMinute);
  ASSERT_GT(primary_verdicts, 0);
  EXPECT_EQ(first_kill, rig.bank.at(0).detections().front().detected_at);
}

TEST(DetectorBank, StopAllSilencesPendingCallbacks) {
  BankRig rig(94, faults::FaultPlan{});
  rig.world.start();
  rig.bank.start_all();
  rig.world.engine().run_until(5 * sim::kSecond);
  rig.bank.stop_all();
  const auto counts_after_stop = rig.bank.at(0).detections().size();
  // Drain everything still queued: stopped detectors must not act on it.
  rig.world.run_until_done(10 * sim::kMinute);
  EXPECT_EQ(rig.bank.at(0).detections().size(), counts_after_stop);
  EXPECT_FALSE(rig.bank.at(1).detected());
  EXPECT_FALSE(rig.bank.at(2).detected());
}

}  // namespace
}  // namespace parastack::core
