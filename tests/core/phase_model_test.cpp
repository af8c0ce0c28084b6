// §6 extension: per-phase models. An application alternating between two
// behaviourally different phases confuses one global model (the mixture is
// non-stationary) but is handled cleanly when the application announces
// phase changes.

#include <gtest/gtest.h>

#include <vector>

#include "core/detector.hpp"
#include "faults/injector.hpp"
#include "obs/telemetry.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

using workloads::BenchmarkProfile;
using workloads::CommPattern;

/// Phase A: fine-grained compute+allreduce. Phase B: long alltoall bursts.
std::shared_ptr<const BenchmarkProfile> phase_a_profile(int iterations) {
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->name = "PHASE_A";
  profile->iterations = static_cast<std::uint64_t>(iterations);
  profile->reference_ranks = 32;
  profile->setup_time = sim::from_millis(100);
  profile->phases = {
      {"a_compute", sim::from_millis(30), 0.12, CommPattern::kHaloBlocking,
       64 * 1024},
      {"a_dot", sim::from_millis(5), 0.15, CommPattern::kAllreduce, 16},
  };
  return profile;
}

struct PhaseRig {
  explicit PhaseRig(std::uint64_t seed, faults::FaultPlan plan,
                    int iterations = 8000)
      : injector(plan),
        world(make_config(seed),
              injector.wrap(workloads::make_factory(phase_a_profile(
                  iterations)))),
        inspector(world),
        detector(world, inspector, DetectorConfig{}) {
    injector.arm(world);
  }

  static simmpi::WorldConfig make_config(std::uint64_t seed) {
    simmpi::WorldConfig config;
    config.nranks = 32;
    config.platform = sim::Platform::tianhe2();
    config.seed = seed;
    config.background_slowdowns = false;
    return config;
  }

  faults::FaultInjector injector;
  simmpi::World world;
  trace::StackInspector inspector;
  HangDetector detector;
};

TEST(PhaseModel, SwitchCreatesFreshModelAndSwitchBackRestores) {
  PhaseRig rig(900, faults::FaultPlan{});
  rig.world.start();
  rig.detector.start();
  rig.world.engine().run_until(40 * sim::kSecond);
  const auto samples_phase0 = rig.detector.model().size();
  ASSERT_GT(samples_phase0, 30u);
  EXPECT_EQ(rig.detector.current_phase(), 0);

  rig.detector.notify_phase_change(1);
  EXPECT_EQ(rig.detector.current_phase(), 1);
  EXPECT_EQ(rig.detector.model().size(), 0u);  // fresh model
  EXPECT_FALSE(rig.detector.randomness_confirmed());

  rig.world.engine().run_until(60 * sim::kSecond);
  const auto samples_phase1 = rig.detector.model().size();
  EXPECT_GT(samples_phase1, 10u);

  rig.detector.notify_phase_change(0);
  EXPECT_GE(rig.detector.model().size(), samples_phase0);  // restored

  rig.detector.notify_phase_change(1);
  EXPECT_GE(rig.detector.model().size(), samples_phase1);
}

TEST(PhaseModel, RepeatedNotificationIsIdempotent) {
  PhaseRig rig(901, faults::FaultPlan{});
  rig.world.start();
  rig.detector.start();
  rig.world.engine().run_until(30 * sim::kSecond);
  const auto samples = rig.detector.model().size();
  rig.detector.notify_phase_change(0);  // already in phase 0
  EXPECT_EQ(rig.detector.model().size(), samples);
}

TEST(PhaseModel, HangStillDetectedWithPhaseAnnouncements) {
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = 13;
  plan.trigger_time = 70 * sim::kSecond;
  PhaseRig rig(902, plan);
  // The application announces a phase boundary every 20 s.
  for (int i = 1; i <= 8; ++i) {
    rig.world.engine().schedule_at(i * 20 * sim::kSecond, [&rig, i] {
      rig.detector.notify_phase_change(i % 2);
    });
  }
  rig.world.start();
  rig.detector.start();
  auto& engine = rig.world.engine();
  while (!rig.detector.hang_reported() && engine.now() < 5 * sim::kMinute &&
         engine.step()) {
  }
  ASSERT_TRUE(rig.detector.hang_reported());
  const auto& report = rig.detector.hang_reports().front();
  EXPECT_GT(report.detected_at, rig.injector.record().activated_at);
  ASSERT_EQ(report.faulty_ranks.size(), 1u);
  EXPECT_EQ(report.faulty_ranks[0], 13);
}

TEST(PhaseModel, PhaseChangeAbortsPendingVerification) {
  // Force a verification, then announce a phase change mid-verification;
  // no hang may be reported from the aborted candidate and sampling must
  // resume.
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = 5;
  plan.trigger_time = 60 * sim::kSecond;
  PhaseRig rig(903, plan);
  rig.world.start();
  rig.detector.start();
  auto& engine = rig.world.engine();
  // Run until the hang is about to be verified, then inject the phase
  // change exactly when a long streak exists.
  bool aborted_once = false;
  while (!rig.detector.hang_reported() && engine.now() < 5 * sim::kMinute &&
         engine.step()) {
    if (!aborted_once && rig.detector.streak() >= 2) {
      rig.detector.notify_phase_change(7);
      aborted_once = true;
      EXPECT_EQ(rig.detector.streak(), 0u);
    }
  }
  // The hang persists, so it is still (re-)detected afterwards in phase 7.
  ASSERT_TRUE(rig.detector.hang_reported());
  EXPECT_EQ(rig.detector.current_phase(), 7);
}

/// Captures phase-change telemetry so the abort is observable from outside.
struct PhaseChangeRecorder final : obs::TelemetrySink {
  void on_event(const obs::Event& event) override {
    if (const auto* e = std::get_if<obs::PhaseChangeEvent>(&event)) {
      events.push_back(*e);
    }
  }
  std::vector<obs::PhaseChangeEvent> events;
};

TEST(PhaseModel, PhaseChangeMidVerificationDiscardsTheCandidate) {
  // Stronger than the streak-abort case above: wait until the detector has
  // actually ENTERED verification (full-sweep rounds in flight), then
  // announce a phase change. The in-flight candidate must be discarded —
  // no hang report from it — and the abort must be visible in telemetry
  // (PhaseChangeEvent.aborted_verification). Both phases learn healthy
  // samples before the fault so the post-abort phase still has a ready
  // model and can convict the (persistent) hang on its own.
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = 11;
  plan.trigger_time = 60 * sim::kSecond;
  PhaseRig rig(904, plan);
  PhaseChangeRecorder recorder;
  rig.world.engine().set_telemetry(&recorder);
  rig.world.start();
  rig.detector.start();
  auto& engine = rig.world.engine();
  bool announced_phase3 = false;
  bool aborted_once = false;
  std::size_t reports_at_abort = 0;
  while (!rig.detector.hang_reported() && engine.now() < 5 * sim::kMinute &&
         engine.step()) {
    // Healthy mid-run phase change: phase 3 learns its own model from
    // t=30s until the hang strikes.
    if (!announced_phase3 && engine.now() >= 30 * sim::kSecond) {
      rig.detector.notify_phase_change(3);
      announced_phase3 = true;
    }
    // The hang drives phase 3 into verification; switching back to the
    // stashed phase 0 mid-verification aborts the candidate.
    if (!aborted_once && rig.detector.verifying()) {
      reports_at_abort = rig.detector.hang_reports().size();
      rig.detector.notify_phase_change(0);
      aborted_once = true;
      // The candidate is gone: back to sampling, streak cleared.
      EXPECT_FALSE(rig.detector.verifying());
      EXPECT_EQ(rig.detector.streak(), 0u);
      EXPECT_EQ(rig.detector.hang_reports().size(), reports_at_abort);
    }
  }
  ASSERT_TRUE(aborted_once) << "detector never entered verification";
  // Telemetry recorded both switches; only the 3 -> 0 one aborted a
  // verification, and it resumed phase 0's stashed model.
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_EQ(recorder.events[0].from_phase, 0);
  EXPECT_EQ(recorder.events[0].to_phase, 3);
  EXPECT_FALSE(recorder.events[0].aborted_verification);
  EXPECT_EQ(recorder.events[1].from_phase, 3);
  EXPECT_EQ(recorder.events[1].to_phase, 0);
  EXPECT_TRUE(recorder.events[1].aborted_verification);
  EXPECT_TRUE(recorder.events[1].resumed);
  // The hang is real and persistent: phase 0's restored model rebuilds the
  // streak and convicts it from scratch.
  ASSERT_TRUE(rig.detector.hang_reported());
  EXPECT_GT(rig.detector.hang_reports().front().detected_at,
            rig.injector.record().activated_at);
  EXPECT_EQ(rig.detector.current_phase(), 0);
}

}  // namespace
}  // namespace parastack::core
