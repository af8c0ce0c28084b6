// Scheduler/driver edge cases for the recovery loop: the retry budget
// running dry, recovery racing a second genuine hang, and a degraded-mode
// verdict (blinded tool, fallback detector) arriving while a team policy
// has to arbitrate second-hand evidence.

#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "recover/policy.hpp"

namespace parastack::harness {
namespace {

RunConfig hang_config(std::uint64_t seed) {
  RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  config.fault = faults::FaultType::kComputeHang;
  // Strike early and at a fixed instant: a refault re-arms at the same
  // relative offset into the restarted attempt, so the trigger must land
  // well inside the (shorter) post-restore stretch of the app.
  config.fault_trigger_lo = 40 * sim::kSecond;
  config.fault_trigger_hi = 40 * sim::kSecond;
  return config;
}

TEST(RecoveryEdge, GivesUpAfterMaxRetries) {
  // The fault re-arms on every attempt (refault_attempts far above the
  // retry budget), so each restore runs straight into another hang. After
  // max_restarts kills the driver must stop retrying and mark the job
  // given up, not loop or report success.
  auto config = hang_config(3);
  config.walltime_override = 3600 * sim::kSecond;  // room for every retry
  config.recovery.policy = recover::RecoveryPolicy::kCheckpointRestart;
  config.recovery.max_restarts = 2;
  config.recovery.refault_attempts = 10;
  const auto result = run_one(config);

  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.recovery.gave_up);
  EXPECT_FALSE(result.recovery.recovered);
  // Budget of 2 restarts = 3 attempts total, every one killed.
  ASSERT_EQ(result.attempts.size(), 3u);
  EXPECT_EQ(result.recovery.attempts_used, 3);
  for (const auto& attempt : result.attempts) {
    EXPECT_TRUE(attempt.killed) << "attempt " << attempt.attempt;
    EXPECT_FALSE(attempt.completed);
  }
  // Attempts stay strictly ordered on the job timeline.
  EXPECT_GT(result.attempts[1].start_time, result.attempts[0].end_time);
  EXPECT_GT(result.attempts[2].start_time, result.attempts[1].end_time);
}

TEST(RecoveryEdge, RecoveryRacesASecondGenuineHang) {
  // The first restore lands in a world that hangs AGAIN (refault on
  // attempt 1 only): the detector must re-detect inside the restored
  // attempt and the second restore must still carry the job home.
  auto config = hang_config(3);
  config.walltime_override = 3600 * sim::kSecond;
  config.recovery.policy = recover::RecoveryPolicy::kCheckpointRestart;
  config.recovery.max_restarts = 3;
  config.recovery.refault_attempts = 1;
  const auto result = run_one(config);

  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.recovery.recovered);
  EXPECT_FALSE(result.recovery.gave_up);
  ASSERT_EQ(result.attempts.size(), 3u);
  EXPECT_TRUE(result.attempts[0].killed);
  EXPECT_TRUE(result.attempts[1].killed);  // the re-armed hang, re-detected
  EXPECT_TRUE(result.attempts[2].completed);
  // Two kills -> two restores billed.
  EXPECT_EQ(result.recovery.overhead_total,
            2 * recover::CheckpointRestartPolicy::kRestartCost);
}

TEST(RecoveryEdge, DegradedVerdictDuringRestoreIsReVerified) {
  // Blinded-tool setup: every monitor is dead before the hang strikes, so
  // the kill comes from the degraded-mode fallback TimeoutDetector — a
  // second-hand verdict. Team replication must arbitrate it (double
  // arbitration cost, "re-verified" in the attempt provenance) and still
  // promote a replica that completes the job.
  auto config = hang_config(23);
  config.fault_trigger_lo = 70 * sim::kSecond;
  config.fault_trigger_hi = 70 * sim::kSecond;
  config.tool_faults.monitor_crashes.push_back(
      {.monitor = 1, .at = 30 * sim::kSecond});
  config.tool_faults.lead_crash_at = 30 * sim::kSecond;
  config.degraded_fallback_timeout = true;
  config.recovery.policy = recover::RecoveryPolicy::kTeamReplication;
  config.recovery.replicas = 2;
  const auto result = run_one(config);

  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.recovery.recovered);
  ASSERT_EQ(result.attempts.size(), 2u);
  EXPECT_TRUE(result.attempts[0].killed);
  EXPECT_NE(result.attempts[0].recovery_detail.find("re-verified"),
            std::string::npos)
      << result.attempts[0].recovery_detail;
  // Degraded evidence costs a second arbitration round before the switch.
  EXPECT_EQ(result.recovery.overhead_total,
            2 * recover::TeamReplicationPolicy::kArbitrationCost);
  EXPECT_EQ(result.recovery.su_multiplier, 2.0);
}

TEST(RecoveryEdge, SpareExhaustionGivesUpWithoutBurningSpares) {
  // One spare, but the fault re-arms forever: the second kill finds the
  // spare pool empty and the policy refuses — the driver gives up there
  // instead of restarting with nothing to fail over to.
  auto config = hang_config(3);
  config.walltime_override = 3600 * sim::kSecond;
  config.recovery.policy = recover::RecoveryPolicy::kSpareFailover;
  config.recovery.spare_count = 1;
  config.recovery.max_restarts = 5;
  config.recovery.refault_attempts = 10;
  const auto result = run_one(config);

  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.recovery.gave_up);
  // Attempt 0 killed, one failover, attempt 1 killed, pool empty -> stop.
  ASSERT_EQ(result.attempts.size(), 2u);
  EXPECT_TRUE(result.attempts[1].killed);
  EXPECT_NE(result.attempts[1].recovery_detail.find("exhausted"),
            std::string::npos)
      << result.attempts[1].recovery_detail;
}

}  // namespace
}  // namespace parastack::harness
