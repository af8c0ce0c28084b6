#include "recover/spec.hpp"

#include <gtest/gtest.h>

namespace parastack::recover {
namespace {

TEST(RecoverySpec, ParseNone) {
  const auto spec = parse_recovery("none");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->policy, RecoveryPolicy::kNone);
  EXPECT_FALSE(spec->active());
}

TEST(RecoverySpec, ParseCkptDefaults) {
  const auto spec = parse_recovery("ckpt");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->policy, RecoveryPolicy::kCheckpointRestart);
  EXPECT_EQ(spec->checkpoint_interval, 60 * sim::kSecond);
  EXPECT_EQ(spec->checkpoint_cost, sim::kSecond);
}

TEST(RecoverySpec, ParseCkptIntervalAndCost) {
  const auto spec = parse_recovery("ckpt:30,2.5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->checkpoint_interval, 30 * sim::kSecond);
  EXPECT_EQ(spec->checkpoint_cost, sim::from_seconds(2.5));
}

TEST(RecoverySpec, ParseSpareCount) {
  const auto spec = parse_recovery("spare:5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->policy, RecoveryPolicy::kSpareFailover);
  EXPECT_EQ(spec->spare_count, 5);
}

TEST(RecoverySpec, ParseTeamReplicas) {
  const auto spec = parse_recovery("team:3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->policy, RecoveryPolicy::kTeamReplication);
  EXPECT_EQ(spec->replicas, 3);
}

TEST(RecoverySpec, RejectsMalformedInput) {
  EXPECT_FALSE(parse_recovery("bogus").has_value());
  EXPECT_FALSE(parse_recovery("none:1").has_value());
  EXPECT_FALSE(parse_recovery("ckpt:").has_value());
  EXPECT_FALSE(parse_recovery("ckpt:0").has_value());
  EXPECT_FALSE(parse_recovery("ckpt:-5").has_value());
  EXPECT_FALSE(parse_recovery("ckpt:30,1,9").has_value());
  EXPECT_FALSE(parse_recovery("spare:0").has_value());
  EXPECT_FALSE(parse_recovery("spare:two").has_value());
  EXPECT_FALSE(parse_recovery("team:1").has_value());  // one team: no spare
  EXPECT_FALSE(parse_recovery("").has_value());
}

TEST(RecoverySpec, PolicyNamesAreStable) {
  EXPECT_EQ(recovery_policy_name(RecoveryPolicy::kNone), "none");
  EXPECT_EQ(recovery_policy_name(RecoveryPolicy::kCheckpointRestart), "ckpt");
  EXPECT_EQ(recovery_policy_name(RecoveryPolicy::kSpareFailover), "spare");
  EXPECT_EQ(recovery_policy_name(RecoveryPolicy::kTeamReplication), "team");
}

}  // namespace
}  // namespace parastack::recover
