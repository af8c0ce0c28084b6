// Regression coverage for the RunResult final-attempt fields (end_time,
// finish_time) and first_attempt_end_time() under multi-attempt recovery
// with a detector bank attached. Includes the expire-mid-restore case,
// where the job's billable end is the walltime the slot burned to — not
// the kill instant the last attempt stopped at.

#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "recover/policy.hpp"
#include "sched/scheduler.hpp"

namespace parastack::harness {
namespace {

RunConfig banked_lu(std::uint64_t seed = 3) {
  RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  config.fault = faults::FaultType::kComputeHang;
  // The bank: ParaStack primary (its detections kill), the fixed-timeout
  // baseline observing alongside.
  config.detectors = {DetectorSpec::make_parastack(),
                      DetectorSpec::make_timeout()};
  config.recovery.policy = recover::RecoveryPolicy::kCheckpointRestart;
  config.recovery.checkpoint_interval = 30 * sim::kSecond;
  return config;
}

TEST(CompatAccessors, MultiAttemptWithDetectorBankDescribesTheFinalAttempt) {
  const RunResult result = run_one(banked_lu());
  ASSERT_TRUE(result.completed);
  ASSERT_GE(result.attempts.size(), 2u);
  // Both bank members survived the cross-attempt merge, in attachment
  // order, under their default labels.
  ASSERT_EQ(result.detectors.size(), 2u);
  EXPECT_EQ(result.detectors[0].kind, core::DetectorKind::kParastack);
  EXPECT_EQ(result.detectors[1].kind, core::DetectorKind::kTimeout);
  EXPECT_TRUE(result.detectors[0].detected());

  // The fields describe the FINAL attempt; the first kill stays reachable
  // through first_attempt_end_time().
  const AttemptRecord& first = result.attempts.front();
  const AttemptRecord& last = result.attempts.back();
  EXPECT_TRUE(first.killed);
  EXPECT_TRUE(last.completed);
  EXPECT_EQ(result.first_attempt_end_time(), first.end_time);
  EXPECT_EQ(result.end_time, last.end_time);
  ASSERT_TRUE(result.finish_time.has_value());
  EXPECT_EQ(*result.finish_time, last.end_time);
  EXPECT_GT(result.end_time, result.first_attempt_end_time());
}

TEST(CompatAccessors, ExpireMidRestoreReportsWalltimeAsTheJobEnd) {
  // Learn where the first kill lands, then shrink the slot so the restore
  // outlives it: the job must expire mid-restore.
  const RunResult probe = run_one(banked_lu());
  ASSERT_GE(probe.attempts.size(), 2u);
  const sim::Time kill_time = probe.attempts.front().end_time;

  RunConfig config = banked_lu();
  config.walltime_override = kill_time +
                             recover::CheckpointRestartPolicy::kRestartCost +
                             500 * sim::kMillisecond;
  const RunResult result = run_one(config);

  ASSERT_FALSE(result.completed);
  EXPECT_FALSE(result.recovery.gave_up);
  ASSERT_EQ(result.attempts.size(), 1u);
  EXPECT_TRUE(result.attempts.front().killed);
  EXPECT_EQ(result.attempts.front().end_time, kill_time);
  // The regression: end_time must be the walltime expiry the lifecycle (and
  // the scheduler's bill) records, not the kill instant of the dead
  // attempt — that one stays on the attempt record.
  EXPECT_EQ(result.end_time, *config.walltime_override);
  EXPECT_EQ(result.first_attempt_end_time(), kill_time);
  EXPECT_LT(result.first_attempt_end_time(), result.end_time);
  EXPECT_FALSE(result.finish_time.has_value());

  // Billing coherence (what the fleet ledger builds on): the charge is a
  // full-slot expiry with no savings credit.
  sched::JobTicket ticket;
  ticket.nodes = 2;
  ticket.cores_per_node = 24;
  ticket.walltime = result.walltime;
  const sched::JobCharge charge = sched::settle_recovered(
      ticket, result.finish_time, result.end_time, result.recovery.gave_up,
      result.recovery.su_multiplier);
  EXPECT_EQ(charge.end, sched::JobEnd::kWalltimeExpired);
  EXPECT_EQ(charge.elapsed, result.walltime);
  EXPECT_DOUBLE_EQ(charge.savings_fraction, 0.0);
}

TEST(CompatAccessors, GiveUpKeepsTheKillInstantAsTheJobEnd) {
  // Contrast case: a give-up abandons the slot at the kill — end_time stays
  // at the kill instant and the bill reclassifies it without savings.
  RunConfig config = banked_lu();
  config.recovery.max_restarts = 0;
  const RunResult result = run_one(config);

  ASSERT_FALSE(result.completed);
  EXPECT_TRUE(result.recovery.gave_up);
  ASSERT_EQ(result.attempts.size(), 1u);
  EXPECT_EQ(result.end_time, result.attempts.front().end_time);
  EXPECT_LT(result.end_time, result.walltime);

  sched::JobTicket ticket;
  ticket.walltime = result.walltime;
  const sched::JobCharge charge = sched::settle_recovered(
      ticket, result.finish_time, result.end_time, result.recovery.gave_up,
      result.recovery.su_multiplier);
  EXPECT_EQ(charge.end, sched::JobEnd::kGaveUp);
  EXPECT_DOUBLE_EQ(charge.savings_fraction, 0.0);
}

}  // namespace
}  // namespace parastack::harness
