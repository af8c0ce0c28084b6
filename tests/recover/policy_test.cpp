#include "recover/policy.hpp"

#include <gtest/gtest.h>

namespace parastack::recover {
namespace {

simmpi::WorldSnapshot snapshot_at(sim::Time t) {
  simmpi::WorldSnapshot snap;
  snap.taken_at = t;
  snap.rank_actions = {10, 12, 9, 11};
  return snap;
}

core::RecoveryVerdict hang_verdict(sim::Time at) {
  core::RecoveryVerdict verdict;
  verdict.killed_at = at;
  verdict.kind = core::DetectorKind::kParastack;
  verdict.faulty_ranks = {2};
  return verdict;
}

TEST(CheckpointRestartPolicy, ColdRestartWithoutCheckpoint) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kCheckpointRestart;
  CheckpointRestartPolicy policy(spec);
  const auto at_kill = snapshot_at(100 * sim::kSecond);
  const auto decision =
      policy.on_kill(hang_verdict(100 * sim::kSecond), nullptr, at_kill);
  EXPECT_TRUE(decision.restart);
  EXPECT_TRUE(decision.resume.empty());  // no checkpoint: from scratch
  EXPECT_EQ(decision.overhead, CheckpointRestartPolicy::kRestartCost);
  EXPECT_NE(decision.detail.find("cold restart"), std::string::npos);
}

TEST(CheckpointRestartPolicy, RollsBackToLastCheckpoint) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kCheckpointRestart;
  CheckpointRestartPolicy policy(spec);
  const auto checkpoint = snapshot_at(60 * sim::kSecond);
  const auto at_kill = snapshot_at(100 * sim::kSecond);
  const auto decision =
      policy.on_kill(hang_verdict(100 * sim::kSecond), &checkpoint, at_kill);
  EXPECT_TRUE(decision.restart);
  // A rollback discards post-checkpoint work: resume is the checkpoint,
  // never the warmer at-kill state.
  EXPECT_EQ(decision.resume.taken_at, 60 * sim::kSecond);
  EXPECT_EQ(decision.resume.rank_actions, checkpoint.rank_actions);
}

TEST(SpareFailoverPolicy, ConsumesOneSparePerFaultyRank) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kSpareFailover;
  spec.spare_count = 3;
  SpareFailoverPolicy policy(spec);
  auto verdict = hang_verdict(100 * sim::kSecond);
  verdict.faulty_ranks = {2, 5};
  const auto at_kill = snapshot_at(100 * sim::kSecond);
  const auto decision = policy.on_kill(verdict, nullptr, at_kill);
  EXPECT_TRUE(decision.restart);
  EXPECT_EQ(policy.spares_left(), 1);
  // Spares resume warm, from the killed world's own progress.
  EXPECT_EQ(decision.resume.taken_at, at_kill.taken_at);
  EXPECT_EQ(decision.overhead, SpareFailoverPolicy::kFailoverCost);
}

TEST(SpareFailoverPolicy, EmptyFaultySetStillNeedsOneSpare) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kSpareFailover;
  spec.spare_count = 1;
  SpareFailoverPolicy policy(spec);
  auto verdict = hang_verdict(50 * sim::kSecond);
  verdict.faulty_ranks.clear();  // communication error: no identified rank
  const auto decision =
      policy.on_kill(verdict, nullptr, snapshot_at(50 * sim::kSecond));
  EXPECT_TRUE(decision.restart);
  EXPECT_EQ(policy.spares_left(), 0);
}

TEST(SpareFailoverPolicy, ExhaustionRefusesRestart) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kSpareFailover;
  spec.spare_count = 1;
  SpareFailoverPolicy policy(spec);
  auto verdict = hang_verdict(50 * sim::kSecond);
  verdict.faulty_ranks = {1, 3};  // needs 2, has 1
  const auto decision =
      policy.on_kill(verdict, nullptr, snapshot_at(50 * sim::kSecond));
  EXPECT_FALSE(decision.restart);
  EXPECT_EQ(policy.spares_left(), 1);  // a refused failover burns nothing
  EXPECT_NE(decision.detail.find("exhausted"), std::string::npos);
}

TEST(TeamReplicationPolicy, PromotesTrailingReplica) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kTeamReplication;
  spec.replicas = 3;
  TeamReplicationPolicy policy(spec);
  EXPECT_EQ(policy.su_multiplier(), 3.0);
  EXPECT_EQ(policy.checkpoint_interval(), TeamReplicationPolicy::kReplicaSkew);
  const auto trailing = snapshot_at(85 * sim::kSecond);
  const auto decision =
      policy.on_kill(hang_verdict(100 * sim::kSecond), &trailing,
                     snapshot_at(100 * sim::kSecond));
  EXPECT_TRUE(decision.restart);
  EXPECT_EQ(policy.switches_left(), 1);
  // The promoted team trails by one skew cadence, never resumes at-kill.
  EXPECT_EQ(decision.resume.taken_at, 85 * sim::kSecond);
  EXPECT_EQ(decision.overhead, TeamReplicationPolicy::kArbitrationCost);
}

TEST(TeamReplicationPolicy, DegradedVerdictDoublesArbitration) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kTeamReplication;
  spec.replicas = 2;
  TeamReplicationPolicy policy(spec);
  auto verdict = hang_verdict(100 * sim::kSecond);
  verdict.degraded = true;  // second-hand kill: re-verify before trusting
  const auto decision =
      policy.on_kill(verdict, nullptr, snapshot_at(100 * sim::kSecond));
  EXPECT_TRUE(decision.restart);
  EXPECT_EQ(decision.overhead, 2 * TeamReplicationPolicy::kArbitrationCost);
  EXPECT_NE(decision.detail.find("re-verified"), std::string::npos);
}

TEST(TeamReplicationPolicy, ReplicaExhaustionRefuses) {
  RecoverySpec spec;
  spec.policy = RecoveryPolicy::kTeamReplication;
  spec.replicas = 2;  // one promotion only
  TeamReplicationPolicy policy(spec);
  (void)policy.on_kill(hang_verdict(50 * sim::kSecond), nullptr,
                       snapshot_at(50 * sim::kSecond));
  const auto second = policy.on_kill(hang_verdict(80 * sim::kSecond), nullptr,
                                     snapshot_at(80 * sim::kSecond));
  EXPECT_FALSE(second.restart);
  EXPECT_NE(second.detail.find("exhausted"), std::string::npos);
}

TEST(MakePolicy, DispatchesOnSpec) {
  RecoverySpec spec;
  EXPECT_EQ(make_policy(spec), nullptr);
  spec.policy = RecoveryPolicy::kCheckpointRestart;
  EXPECT_EQ(make_policy(spec)->policy_name(), "ckpt");
  spec.policy = RecoveryPolicy::kSpareFailover;
  EXPECT_EQ(make_policy(spec)->policy_name(), "spare");
  spec.policy = RecoveryPolicy::kTeamReplication;
  EXPECT_EQ(make_policy(spec)->policy_name(), "team");
}

}  // namespace
}  // namespace parastack::recover
