// Unit tests for the extracted detection-pipeline stages (core/pipeline.hpp).
// Each stage is exercised in isolation — no HangDetector orchestration —
// which is exactly the property the refactor was meant to buy.

#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "simmpi/stack.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

using workloads::BenchmarkProfile;
using workloads::CommPattern;

std::shared_ptr<const BenchmarkProfile> mini_solver() {
  auto profile = std::make_shared<BenchmarkProfile>();
  profile->name = "MINI";
  profile->iterations = 400;
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

/// World + inspector + RNG, enough to host a ScroutSampler.
struct SamplerRig {
  SamplerRig(int nranks, ScroutSampler::Config config,
             std::uint64_t seed = 4242)
      : world(world_config(nranks, 11), workloads::make_factory(mini_solver())),
        inspector(world),
        rng(seed),
        sampler(world, inspector, config, rng) {}

  simmpi::World world;
  trace::StackInspector inspector;
  util::Rng rng;
  ScroutSampler sampler;
};

trace::StackSnapshot snap(simmpi::Rank rank, std::vector<std::string> frames) {
  trace::StackSnapshot snapshot;
  snapshot.rank = rank;
  snapshot.frames = std::move(frames);
  for (auto it = snapshot.frames.rbegin(); it != snapshot.frames.rend(); ++it) {
    if (simmpi::frame_is_mpi(*it)) {
      snapshot.innermost_mpi = *it;
      break;
    }
  }
  snapshot.in_mpi = !snapshot.innermost_mpi.empty();
  return snapshot;
}

// --- ScroutSampler ---------------------------------------------------------

TEST(ScroutSampler, MonitorSetsAreDisjointAndSized) {
  SamplerRig rig(16, {.monitored_count = 6});
  const auto& a = rig.sampler.monitor_set(0);
  const auto& b = rig.sampler.monitor_set(1);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  std::set<simmpi::Rank> all(a.begin(), a.end());
  all.insert(b.begin(), b.end());
  EXPECT_EQ(all.size(), 12u);  // no overlap
  for (const simmpi::Rank r : all) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 16);
  }
}

TEST(ScroutSampler, SmallJobSplitsWhatIsAvailable) {
  // nranks < 2C: each set gets nranks/2, still disjoint.
  SamplerRig rig(4, {.monitored_count = 10});
  ASSERT_EQ(rig.sampler.monitor_set(0).size(), 2u);
  ASSERT_EQ(rig.sampler.monitor_set(1).size(), 2u);
  std::set<simmpi::Rank> all;
  for (int set = 0; set < 2; ++set) {
    for (const simmpi::Rank r : rig.sampler.monitor_set(set)) all.insert(r);
  }
  EXPECT_EQ(all.size(), 4u);
}

TEST(ScroutSampler, NextDelaySpansHalfToThreeHalvesOfInterval) {
  SamplerRig rig(16, {.monitored_count = 6});
  const sim::Time interval = sim::from_millis(400);
  double mean_ms = 0.0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const sim::Time delay = rig.sampler.next_delay(interval);
    ASSERT_GE(delay, interval / 2);
    ASSERT_LE(delay, interval * 3 / 2);
    mean_ms += sim::to_millis(delay);
  }
  mean_ms /= kDraws;
  // r_step = rand(I) + I/2 has mean I (§3.1).
  EXPECT_NEAR(mean_ms, sim::to_millis(interval), 10.0);
}

TEST(ScroutSampler, DwellSwitchAlternatesActiveSet) {
  SamplerRig rig(16, {.monitored_count = 6});
  EXPECT_EQ(rig.sampler.active_set(), 0);
  EXPECT_FALSE(rig.sampler.count_observation(3));
  EXPECT_FALSE(rig.sampler.count_observation(3));
  EXPECT_TRUE(rig.sampler.count_observation(3));  // dwell reached: switch
  EXPECT_EQ(rig.sampler.active_set(), 1);
  EXPECT_FALSE(rig.sampler.count_observation(3));
  EXPECT_EQ(rig.sampler.observations(), 4u);
}

TEST(ScroutSampler, AlternationCanBeDisabled) {
  SamplerRig rig(16, {.monitored_count = 6, .enable_set_alternation = false});
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rig.sampler.count_observation(3));
  }
  EXPECT_EQ(rig.sampler.active_set(), 0);
  EXPECT_EQ(rig.sampler.observations(), 20u);
}

TEST(ScroutSampler, MeasureReturnsAFractionOfTheSet) {
  SamplerRig rig(16, {.monitored_count = 6});
  const double scrout = rig.sampler.measure_qualified().scrout;
  EXPECT_GE(scrout, 0.0);
  EXPECT_LE(scrout, 1.0);
}

// --- IntervalTuner ---------------------------------------------------------

TEST(IntervalTuner, StartsAtInitialIntervalAndResets) {
  IntervalTuner tuner({.initial_interval = sim::from_millis(400)});
  EXPECT_EQ(tuner.interval(), sim::from_millis(400));
  EXPECT_FALSE(tuner.randomness_confirmed());
  EXPECT_EQ(tuner.doublings(), 0u);
  tuner.restore({.interval = sim::from_millis(1600),
                 .randomness_confirmed = true,
                 .doublings = 2});
  EXPECT_EQ(tuner.interval(), sim::from_millis(1600));
  tuner.reset();
  EXPECT_EQ(tuner.interval(), sim::from_millis(400));
  EXPECT_FALSE(tuner.randomness_confirmed());
  EXPECT_EQ(tuner.doublings(), 0u);
}

TEST(IntervalTuner, NonRandomSeriesDoublesIntervalAndThinsModel) {
  IntervalTuner tuner(
      {.initial_interval = sim::from_millis(400), .runs_test_batch = 16});
  ScroutModel model;
  // A monotone ramp: the runs test sees two runs around the median and
  // rejects randomness on the first batch.
  for (int i = 0; i < 16; ++i) {
    model.add_sample(static_cast<double>(i) / 16.0);
    tuner.on_model_sample(model, nullptr, sim::from_millis(i), "test");
  }
  EXPECT_EQ(tuner.interval(), sim::from_millis(800));
  EXPECT_EQ(tuner.doublings(), 1u);
  EXPECT_FALSE(tuner.randomness_confirmed());
  // thin_half: history now approximates samples taken at the doubled I.
  EXPECT_EQ(model.size(), 8u);
}

TEST(IntervalTuner, RandomSeriesConfirmsWithoutDoubling) {
  IntervalTuner tuner(
      {.initial_interval = sim::from_millis(400), .runs_test_batch = 16});
  ScroutModel model;
  util::Rng rng(17);
  for (int i = 0; i < 16; ++i) {
    model.add_sample(rng.uniform());
    tuner.on_model_sample(model, nullptr, sim::from_millis(i), "test");
  }
  EXPECT_TRUE(tuner.randomness_confirmed());
  EXPECT_EQ(tuner.interval(), sim::from_millis(400));
  EXPECT_EQ(model.size(), 16u);  // no thinning happened
}

TEST(IntervalTuner, ConfirmedTunerIgnoresFurtherSamples) {
  IntervalTuner tuner(
      {.initial_interval = sim::from_millis(400), .runs_test_batch = 4});
  tuner.restore(
      {.interval = sim::from_millis(400), .randomness_confirmed = true});
  ScroutModel model;
  for (int i = 0; i < 32; ++i) {
    model.add_sample(static_cast<double>(i));  // wildly non-random
    tuner.on_model_sample(model, nullptr, 0, "test");
  }
  EXPECT_EQ(tuner.interval(), sim::from_millis(400));
  EXPECT_EQ(model.size(), 32u);
}

TEST(IntervalTuner, DisabledTunerNeverDoublesOrConfirms) {
  IntervalTuner tuner({.initial_interval = sim::from_millis(400),
                       .runs_test_batch = 4,
                       .enable = false});
  ScroutModel model;
  for (int i = 0; i < 32; ++i) {
    model.add_sample(static_cast<double>(i) / 32.0);
    tuner.on_model_sample(model, nullptr, 0, "test");
  }
  EXPECT_EQ(tuner.interval(), sim::from_millis(400));
  EXPECT_FALSE(tuner.randomness_confirmed());
  EXPECT_EQ(model.size(), 32u);
}

TEST(IntervalTuner, CapForcesConfirmationInsteadOfDisablingDetection) {
  IntervalTuner tuner({.initial_interval = sim::from_millis(400),
                       .max_interval = sim::from_millis(800),
                       .runs_test_batch = 16});
  ScroutModel model;
  auto feed_monotone_batch = [&] {
    for (int i = 0; i < 16; ++i) {
      model.add_sample(static_cast<double>(i) / 16.0);
      tuner.on_model_sample(model, nullptr, 0, "test");
    }
  };
  feed_monotone_batch();  // 400 -> 800
  EXPECT_EQ(tuner.interval(), sim::from_millis(800));
  EXPECT_FALSE(tuner.randomness_confirmed());
  feed_monotone_batch();  // would exceed the cap: give up and proceed
  EXPECT_EQ(tuner.interval(), sim::from_millis(800));
  EXPECT_TRUE(tuner.randomness_confirmed());
  EXPECT_EQ(tuner.doublings(), 1u);
}

TEST(IntervalTuner, StateRoundTripsThroughStashAndRestore) {
  IntervalTuner tuner({.initial_interval = sim::from_millis(400)});
  const IntervalTuner::State saved = {.interval = sim::from_millis(3200),
                                      .randomness_confirmed = true,
                                      .doublings = 3,
                                      .samples_since_runs_test = 7};
  tuner.restore(saved);
  const auto state = tuner.state();
  EXPECT_EQ(state.interval, saved.interval);
  EXPECT_EQ(state.randomness_confirmed, saved.randomness_confirmed);
  EXPECT_EQ(state.doublings, saved.doublings);
  EXPECT_EQ(state.samples_since_runs_test, saved.samples_since_runs_test);
}

// --- SuspicionJudge --------------------------------------------------------

/// A healthy model: ~10% mass near zero, the rest high. Ready with
/// threshold 0.0 and a small k (cf. model_test.cpp).
void fill_healthy(ScroutModel& model) {
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    model.add_sample(rng.uniform() < 0.10 ? 0.0 : 0.8 + 0.1 * (i % 3));
  }
}

TEST(SuspicionJudge, UnreadyModelNeverSuspects) {
  SuspicionJudge judge({.alpha = 0.001});
  const auto verdict = judge.judge(0.0, true);
  EXPECT_FALSE(verdict.decision.ready);
  EXPECT_FALSE(verdict.suspicious);
  EXPECT_EQ(judge.streak(), 0u);
}

TEST(SuspicionJudge, UnconfirmedRandomnessGatesDetection) {
  SuspicionJudge judge({.alpha = 0.001});
  fill_healthy(judge.model());
  const auto verdict = judge.judge(0.0, /*randomness_confirmed=*/false);
  EXPECT_TRUE(verdict.decision.ready);
  EXPECT_FALSE(verdict.suspicious);  // q^k only bounds iid sampling
  EXPECT_EQ(judge.streak(), 0u);
}

TEST(SuspicionJudge, StreakAdvancesToVerificationAtK) {
  SuspicionJudge judge({.alpha = 0.001});
  fill_healthy(judge.model());
  const std::size_t k = judge.decision().k;
  ASSERT_GE(k, 2u);
  for (std::size_t i = 1; i < k; ++i) {
    const auto verdict = judge.judge(0.0, true);
    EXPECT_TRUE(verdict.suspicious);
    EXPECT_FALSE(verdict.verify) << "verified early at streak " << i;
    EXPECT_EQ(judge.streak(), i);
  }
  const auto verdict = judge.judge(0.0, true);
  EXPECT_TRUE(verdict.suspicious);
  EXPECT_TRUE(verdict.verify);
  EXPECT_EQ(judge.streak(), k);
}

TEST(SuspicionJudge, HealthySampleEndsTheStreak) {
  SuspicionJudge judge({.alpha = 0.001});
  fill_healthy(judge.model());
  judge.judge(0.0, true);
  judge.judge(0.0, true);
  ASSERT_EQ(judge.streak(), 2u);
  const auto verdict = judge.judge(0.9, true);
  EXPECT_FALSE(verdict.suspicious);
  EXPECT_EQ(verdict.ended_streak, 2u);
  EXPECT_EQ(judge.streak(), 0u);
}

TEST(SuspicionJudge, ResetStreakReturnsItsLength) {
  SuspicionJudge judge({.alpha = 0.001});
  fill_healthy(judge.model());
  judge.judge(0.0, true);
  judge.judge(0.0, true);
  judge.judge(0.0, true);
  EXPECT_EQ(judge.reset_streak(), 3u);
  EXPECT_EQ(judge.streak(), 0u);
  EXPECT_EQ(judge.reset_streak(), 0u);
}

TEST(SuspicionJudge, ModelFreezesDuringLongStreaks) {
  SuspicionJudge judge({.alpha = 0.001, .model_freeze_streak = 3});
  fill_healthy(judge.model());
  EXPECT_FALSE(judge.model_frozen());
  judge.judge(0.0, true);
  judge.judge(0.0, true);
  EXPECT_FALSE(judge.model_frozen());
  judge.judge(0.0, true);
  EXPECT_TRUE(judge.model_frozen());  // streak >= model_freeze_streak
}

TEST(SuspicionJudge, EagerFreezeVariantFreezesFromFirstSuspicion) {
  SuspicionJudge judge({.alpha = 0.001, .freeze_model_during_streak = true});
  fill_healthy(judge.model());
  EXPECT_FALSE(judge.model_frozen());
  judge.judge(0.0, true);
  EXPECT_TRUE(judge.model_frozen());
}

TEST(SuspicionJudge, PhaseSwitchStashesAndRestoresModelAndTuning) {
  SuspicionJudge judge({.alpha = 0.001});
  IntervalTuner tuner({.initial_interval = sim::from_millis(400)});
  fill_healthy(judge.model());
  const std::size_t phase0_size = judge.model().size();
  tuner.restore({.interval = sim::from_millis(1600),
                 .randomness_confirmed = true,
                 .doublings = 2});

  // Into a never-seen phase: fresh model, fresh tuning.
  EXPECT_FALSE(judge.switch_phase(1, tuner));
  EXPECT_EQ(judge.current_phase(), 1);
  EXPECT_EQ(judge.model().size(), 0u);
  EXPECT_EQ(tuner.interval(), sim::from_millis(400));
  EXPECT_FALSE(tuner.randomness_confirmed());

  judge.model().add_sample(0.5);

  // Back to phase 0: the stashed model and tuning come back verbatim.
  EXPECT_TRUE(judge.switch_phase(0, tuner));
  EXPECT_EQ(judge.current_phase(), 0);
  EXPECT_EQ(judge.model().size(), phase0_size);
  EXPECT_EQ(tuner.interval(), sim::from_millis(1600));
  EXPECT_TRUE(tuner.randomness_confirmed());
  EXPECT_EQ(tuner.doublings(), 2u);

  // And phase 1's single sample was stashed in turn.
  EXPECT_TRUE(judge.switch_phase(1, tuner));
  EXPECT_EQ(judge.model().size(), 1u);
}

TEST(SuspicionJudge, PhaseSwitchLeavesTheStreakToTheOrchestrator) {
  // switch_phase must not reset the streak itself: the orchestrator does,
  // with telemetry (PhaseChangeEvent.aborted_verification).
  SuspicionJudge judge({.alpha = 0.001});
  IntervalTuner tuner({.initial_interval = sim::from_millis(400)});
  fill_healthy(judge.model());
  judge.judge(0.0, true);
  judge.judge(0.0, true);
  ASSERT_EQ(judge.streak(), 2u);
  judge.switch_phase(1, tuner);
  EXPECT_EQ(judge.streak(), 2u);
}

// --- TransientFilter -------------------------------------------------------

std::vector<trace::StackSnapshot> static_round() {
  return {snap(0, {"main", "solver", "MPI_Allreduce"}),
          snap(1, {"main", "solver", "stuck_user_loop"}),
          snap(2, {"main", "solver", "MPI_Allreduce"})};
}

TEST(SuspicionJudge, BelowQuorumStreakNeedsTheSurcharge) {
  SuspicionJudge judge({.alpha = 0.001,
                        .coverage_quorum = 0.55,
                        .low_coverage_extra_streak = 2,
                        .degraded_mode_after = 100});
  fill_healthy(judge.model());
  const std::size_t k = judge.decision().k;
  // All-suspicious streak at below-quorum coverage: verification must wait
  // for k + 2 observations, not k.
  for (std::size_t i = 1; i <= k + 2; ++i) {
    const auto verdict = judge.judge(0.0, true, /*coverage=*/0.4);
    EXPECT_TRUE(verdict.suspicious);
    EXPECT_EQ(verdict.required, k + 2);
    EXPECT_EQ(verdict.verify, i >= k + 2) << "streak " << i;
  }
}

TEST(SuspicionJudge, AtQuorumCoverageNeedsNoSurcharge) {
  SuspicionJudge judge({.alpha = 0.001});
  fill_healthy(judge.model());
  const std::size_t k = judge.decision().k;
  for (std::size_t i = 1; i <= k; ++i) {
    const auto verdict = judge.judge(0.0, true, /*coverage=*/0.8);
    EXPECT_EQ(verdict.required, k);
    EXPECT_EQ(verdict.verify, i >= k);
  }
}

TEST(SuspicionJudge, ZeroCoverageSampleIsStreakNeutral) {
  SuspicionJudge judge({.alpha = 0.001});
  fill_healthy(judge.model());
  judge.judge(0.0, true);
  judge.judge(0.0, true);
  ASSERT_EQ(judge.streak(), 2u);
  // A blind sample carries no signal: the streak neither advances nor ends.
  const auto verdict = judge.judge(0.0, true, /*coverage=*/0.0);
  EXPECT_FALSE(verdict.suspicious);
  EXPECT_EQ(verdict.ended_streak, 0u);
  EXPECT_EQ(judge.streak(), 2u);
}

TEST(SuspicionJudge, DegradedModeEntersAfterConsecutiveLowAndExits) {
  SuspicionJudge judge(
      {.alpha = 0.001, .coverage_quorum = 0.55, .degraded_mode_after = 3});
  fill_healthy(judge.model());
  EXPECT_FALSE(judge.degraded_mode());
  EXPECT_FALSE(judge.judge(0.9, true, 0.4).entered_degraded);
  EXPECT_FALSE(judge.judge(0.9, true, 0.4).entered_degraded);
  EXPECT_EQ(judge.consecutive_low_coverage(), 2u);
  const auto third = judge.judge(0.9, true, 0.4);
  EXPECT_TRUE(third.entered_degraded);
  EXPECT_TRUE(judge.degraded_mode());
  // Still degraded on the next low sample, but the transition fired once.
  EXPECT_FALSE(judge.judge(0.9, true, 0.4).entered_degraded);
  // First at-quorum sample recovers.
  const auto recovered = judge.judge(0.9, true, 1.0);
  EXPECT_TRUE(recovered.exited_degraded);
  EXPECT_FALSE(judge.degraded_mode());
  EXPECT_EQ(judge.consecutive_low_coverage(), 0u);
}

TEST(SuspicionJudge, AnInterveningHealthySampleClearsTheSurcharge) {
  SuspicionJudge judge({.alpha = 0.001,
                        .coverage_quorum = 0.55,
                        .low_coverage_extra_streak = 3,
                        .degraded_mode_after = 100});
  fill_healthy(judge.model());
  const std::size_t k = judge.decision().k;
  judge.judge(0.0, true, 0.4);  // below-quorum suspicion taints the streak
  EXPECT_EQ(judge.judge(0.0, true, 1.0).required, k + 3);
  judge.judge(0.9, true, 1.0);  // healthy sample resets streak + taint
  EXPECT_EQ(judge.judge(0.0, true, 1.0).required, k);
}

TEST(TransientFilter, MovementBetweenRoundsIsASlowdown) {
  TransientFilter filter({.rounds = 5});
  filter.begin(static_round());
  EXPECT_EQ(filter.rounds_done(), 1);
  // Rank 1 moved into a (non-test) MPI call: §3.3 condition (2).
  auto moved = static_round();
  moved[1] = snap(1, {"main", "solver", "MPI_Recv"});
  const auto check = filter.check(std::move(moved));
  ASSERT_EQ(check.outcome, TransientFilter::Outcome::kSlowdown);
  EXPECT_EQ(check.evidence.rank, 1);
}

TEST(TransientFilter, StaticRoundsRetryThenConfirmTheHang) {
  TransientFilter filter({.rounds = 3});
  filter.begin(static_round());
  const auto second = filter.check(static_round());
  EXPECT_EQ(second.outcome, TransientFilter::Outcome::kRetry);
  EXPECT_EQ(filter.rounds_done(), 2);
  const auto third = filter.check(static_round());
  EXPECT_EQ(third.outcome, TransientFilter::Outcome::kHangConfirmed);
  EXPECT_EQ(filter.rounds_done(), 3);
}

TEST(TransientFilter, RearmingRestartsTheCount) {
  TransientFilter filter({.rounds = 2});
  filter.begin(static_round());
  EXPECT_EQ(filter.check(static_round()).outcome,
            TransientFilter::Outcome::kHangConfirmed);
  filter.begin(static_round());  // a fresh verification
  EXPECT_EQ(filter.rounds_done(), 1);
  EXPECT_EQ(filter.check(static_round()).outcome,
            TransientFilter::Outcome::kHangConfirmed);
}

// --- FaultyIdentifier ------------------------------------------------------

std::vector<trace::StackSnapshot> sweep_with_victim(simmpi::Rank victim) {
  std::vector<trace::StackSnapshot> sweep;
  for (simmpi::Rank r = 0; r < 4; ++r) {
    sweep.push_back(r == victim ? snap(r, {"main", "solver", "stuck_user_loop"})
                                : snap(r, {"main", "solver", "MPI_Allreduce"}));
  }
  return sweep;
}

TEST(FaultyIdentifier, CollectsConfiguredSweepCountThenIdentifies) {
  FaultyIdentifier identifier({.checks = 3, .gap = sim::from_millis(50)});
  EXPECT_EQ(identifier.gap(), sim::from_millis(50));
  EXPECT_FALSE(identifier.add_sweep(sweep_with_victim(2)));
  EXPECT_FALSE(identifier.add_sweep(sweep_with_victim(2)));
  EXPECT_EQ(identifier.rounds(), 2);
  EXPECT_TRUE(identifier.add_sweep(sweep_with_victim(2)));
  const auto faulty = identifier.identify();
  ASSERT_EQ(faulty.size(), 1u);
  EXPECT_EQ(faulty[0], 2);
}

TEST(FaultyIdentifier, ResetDropsCollectedSweeps) {
  FaultyIdentifier identifier({.checks = 2});
  identifier.add_sweep(sweep_with_victim(1));
  identifier.reset();
  EXPECT_EQ(identifier.rounds(), 0);
  EXPECT_FALSE(identifier.add_sweep(sweep_with_victim(3)));
  EXPECT_TRUE(identifier.add_sweep(sweep_with_victim(3)));
  const auto faulty = identifier.identify();
  ASSERT_EQ(faulty.size(), 1u);
  EXPECT_EQ(faulty[0], 3);
}

}  // namespace
}  // namespace parastack::core
