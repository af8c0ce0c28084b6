// The multi-attempt recovery driver, end to end through run_one(): a
// detector kill rolls the job back (or fails over) and drives it to
// completion, with per-attempt provenance in RunResult::attempts and the
// legacy single-attempt surface (finish_time, end_time, accessors)
// keeping its exact pre-recovery meaning when the feature is off.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "obs/journal.hpp"
#include "recover/policy.hpp"

namespace parastack::harness {
namespace {

RunConfig small_lu(std::uint64_t seed = 1) {
  RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

TEST(RecoveryRunner, OffKeepsTheLegacyResultShape) {
  // With recovery off, the multi-attempt surface must be empty.
  auto config = small_lu(3);
  config.fault = faults::FaultType::kComputeHang;
  const auto result = run_one(config);
  EXPECT_FALSE(result.recovery.enabled);
  EXPECT_TRUE(result.attempts.empty());
  // With no attempts recorded, the first attempt IS the run.
  EXPECT_EQ(result.first_attempt_end_time(), result.end_time);
}

TEST(RecoveryRunner, CkptRecoversAHangRunToCompletion) {
  auto config = small_lu(3);
  config.fault = faults::FaultType::kComputeHang;
  config.recovery.policy = recover::RecoveryPolicy::kCheckpointRestart;
  config.recovery.checkpoint_interval = 30 * sim::kSecond;
  const auto result = run_one(config);

  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.recovery.enabled);
  EXPECT_TRUE(result.recovery.recovered);
  EXPECT_FALSE(result.recovery.gave_up);
  ASSERT_EQ(result.attempts.size(), 2u);
  EXPECT_EQ(result.recovery.attempts_used, 2);
  EXPECT_GT(result.recovery.checkpoints_taken, 0u);
  EXPECT_EQ(result.recovery.overhead_total,
            recover::CheckpointRestartPolicy::kRestartCost);

  const auto& first = result.attempts[0];
  const auto& second = result.attempts[1];
  EXPECT_TRUE(first.killed);
  EXPECT_FALSE(first.completed);
  EXPECT_EQ(first.start_time, 0);
  EXPECT_TRUE(second.completed);
  // The restarted attempt begins after the kill plus the restart cost and
  // resumes from the last periodic checkpoint, not from scratch.
  EXPECT_EQ(second.start_time,
            first.end_time + recover::CheckpointRestartPolicy::kRestartCost);
  EXPECT_GT(second.resumed_from, 0);
  EXPECT_LE(second.resumed_from, first.end_time);

  // The fields describe the FINAL attempt; the first attempt's end is still
  // reachable explicitly.
  EXPECT_EQ(result.first_attempt_end_time(), first.end_time);
  EXPECT_EQ(result.end_time, second.end_time);
  ASSERT_TRUE(result.finish_time.has_value());
  EXPECT_GT(*result.finish_time, first.end_time);
  // The job still finished inside its original allocation.
  EXPECT_LT(*result.finish_time, result.walltime);
}

TEST(RecoveryRunner, SpareFailoverResumesWarm) {
  auto config = small_lu(3);
  config.fault = faults::FaultType::kComputeHang;
  config.recovery.policy = recover::RecoveryPolicy::kSpareFailover;
  const auto result = run_one(config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.recovery.recovered);
  ASSERT_EQ(result.attempts.size(), 2u);
  // Warm failover resumes from the at-kill snapshot: the survivors' state
  // at the kill instant, not an earlier checkpoint.
  EXPECT_EQ(result.attempts[1].resumed_from, result.attempts[0].end_time);
  EXPECT_EQ(result.recovery.overhead_total,
            recover::SpareFailoverPolicy::kFailoverCost);
  EXPECT_EQ(result.recovery.checkpoints_taken, 0u);
}

TEST(RecoveryRunner, TeamReplicationBillsAllReplicas) {
  auto config = small_lu(3);
  config.fault = faults::FaultType::kComputeHang;
  config.recovery.policy = recover::RecoveryPolicy::kTeamReplication;
  config.recovery.replicas = 3;
  const auto result = run_one(config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.recovery.recovered);
  EXPECT_EQ(result.recovery.su_multiplier, 3.0);
  // The promoted team trails by the skew: resume is at most one cadence
  // before the kill.
  ASSERT_EQ(result.attempts.size(), 2u);
  EXPECT_GE(result.attempts[1].resumed_from,
            result.attempts[0].end_time -
                recover::TeamReplicationPolicy::kReplicaSkew - sim::kSecond);
}

TEST(RecoveryRunner, JournalIsDeterministicWithRecoveryOn) {
  const auto run_journal = [] {
    auto config = small_lu(9);
    config.fault = faults::FaultType::kComputeHang;
    config.recovery.policy = recover::RecoveryPolicy::kCheckpointRestart;
    std::ostringstream out;
    obs::JsonlJournal journal(out);
    config.telemetry = &journal;
    (void)run_one(config);
    return std::move(out).str();
  };
  const std::string a = run_journal();
  const std::string b = run_journal();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The journal narrates the recovery: a recovery line, exactly one
  // run_start and one run_end for the whole multi-attempt job.
  EXPECT_NE(a.find("\"ev\":\"recovery\""), std::string::npos);
  EXPECT_NE(a.find("\"action\":\"restore\""), std::string::npos);
  EXPECT_EQ(a.find("\"ev\":\"run_start\""), a.rfind("\"ev\":\"run_start\""));
  EXPECT_EQ(a.find("\"ev\":\"run_end\""), a.rfind("\"ev\":\"run_end\""));
}

TEST(RecoveryRunner, CleanRunNeverRecovers) {
  auto config = small_lu(1);
  config.recovery.policy = recover::RecoveryPolicy::kCheckpointRestart;
  const auto result = run_one(config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.recovery.enabled);
  EXPECT_FALSE(result.recovery.recovered);
  EXPECT_FALSE(result.recovery.gave_up);
  EXPECT_EQ(result.recovery.attempts_used, 1);
  EXPECT_EQ(result.recovery.overhead_total, 0);
  ASSERT_EQ(result.attempts.size(), 1u);
  EXPECT_TRUE(result.attempts[0].completed);
}

TEST(RecoveryRunner, CleanRunMatchesRecoveryOffOutcome) {
  // A recovery-armed clean run must be the same simulation it always was:
  // ckpt's periodic snapshot events are engine bookkeeping with zero cost
  // coupling into detection, and attempt 0 runs under the job seed exactly.
  auto off = small_lu(1);
  const auto baseline = run_one(off);
  auto on = small_lu(1);
  on.recovery.policy = recover::RecoveryPolicy::kSpareFailover;
  const auto result = run_one(on);
  ASSERT_TRUE(baseline.completed);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(*baseline.finish_time, *result.finish_time);
  EXPECT_EQ(baseline.traces, result.traces);
  EXPECT_EQ(baseline.model_samples, result.model_samples);
}

}  // namespace
}  // namespace parastack::harness
