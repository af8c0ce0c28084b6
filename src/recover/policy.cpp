#include "recover/policy.hpp"

#include <algorithm>
#include <cstdio>

namespace parastack::recover {

namespace {

std::string rollback_detail(const simmpi::WorldSnapshot& resume) {
  char buffer[64];
  if (resume.empty()) return "cold restart (no checkpoint yet)";
  std::snprintf(buffer, sizeof buffer, "rollback to t=%.1fs",
                sim::to_seconds(resume.taken_at));
  return buffer;
}

}  // namespace

core::RecoveryDecision CheckpointRestartPolicy::on_kill(
    const core::RecoveryVerdict& verdict,
    const simmpi::WorldSnapshot* last_checkpoint,
    const simmpi::WorldSnapshot& at_kill) {
  (void)verdict;
  (void)at_kill;  // a rollback deliberately discards post-checkpoint work
  core::RecoveryDecision decision;
  decision.restart = true;
  if (last_checkpoint != nullptr) decision.resume = *last_checkpoint;
  decision.overhead = kRestartCost;
  decision.detail = rollback_detail(decision.resume);
  return decision;
}

core::RecoveryDecision SpareFailoverPolicy::on_kill(
    const core::RecoveryVerdict& verdict,
    const simmpi::WorldSnapshot* last_checkpoint,
    const simmpi::WorldSnapshot& at_kill) {
  (void)last_checkpoint;  // spares resume warm; no rollback involved
  core::RecoveryDecision decision;
  // A communication-error verdict has an empty faulty set; splicing in one
  // spare for the unidentified culprit is the best the policy can do.
  const int needed = std::max(1, static_cast<int>(verdict.faulty_ranks.size()));
  if (needed > spares_left_) {
    decision.restart = false;
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "spares exhausted (need %d, have %d)",
                  needed, spares_left_);
    decision.detail = buffer;
    return decision;
  }
  spares_left_ -= needed;
  decision.restart = true;
  decision.resume = at_kill;
  decision.overhead = kFailoverCost;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "replaced %d rank(s), %d spare(s) left",
                needed, spares_left_);
  decision.detail = buffer;
  return decision;
}

core::RecoveryDecision TeamReplicationPolicy::on_kill(
    const core::RecoveryVerdict& verdict,
    const simmpi::WorldSnapshot* last_checkpoint,
    const simmpi::WorldSnapshot& at_kill) {
  (void)at_kill;  // the promoted team trails the killed one by the skew
  core::RecoveryDecision decision;
  if (switches_left_ <= 0) {
    decision.restart = false;
    decision.detail = "replicas exhausted";
    return decision;
  }
  --switches_left_;
  decision.restart = true;
  if (last_checkpoint != nullptr) decision.resume = *last_checkpoint;
  decision.overhead =
      verdict.degraded ? 2 * kArbitrationCost : kArbitrationCost;
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                "promoted replica (%d switch(es) left)%s", switches_left_,
                verdict.degraded ? ", degraded verdict re-verified" : "");
  decision.detail = buffer;
  return decision;
}

std::unique_ptr<core::RecoveryAction> make_policy(const RecoverySpec& spec) {
  switch (spec.policy) {
    case RecoveryPolicy::kNone:
      return nullptr;
    case RecoveryPolicy::kCheckpointRestart:
      return std::make_unique<CheckpointRestartPolicy>(spec);
    case RecoveryPolicy::kSpareFailover:
      return std::make_unique<SpareFailoverPolicy>(spec);
    case RecoveryPolicy::kTeamReplication:
      return std::make_unique<TeamReplicationPolicy>(spec);
  }
  return nullptr;
}

}  // namespace parastack::recover
