#pragma once

#include <memory>

#include "core/recovery.hpp"
#include "recover/spec.hpp"

namespace parastack::recover {

/// (a) Checkpoint/restart: periodic coordinated checkpoints while the job
/// runs; a kill rolls back to the last one (cold restart when none was
/// taken yet) after kRestartCost of relaunch time.
class CheckpointRestartPolicy final : public core::RecoveryAction {
 public:
  /// Relaunch + state-load time between a kill and the restarted attempt.
  static constexpr sim::Time kRestartCost = 20 * sim::kSecond;

  explicit CheckpointRestartPolicy(const RecoverySpec& spec) : spec_(spec) {}

  std::string_view policy_name() const noexcept override { return "ckpt"; }
  sim::Time checkpoint_interval() const noexcept override {
    return spec_.checkpoint_interval;
  }
  sim::Time checkpoint_cost() const noexcept override {
    return spec_.checkpoint_cost;
  }
  core::RecoveryDecision on_kill(const core::RecoveryVerdict& verdict,
                                 const simmpi::WorldSnapshot* last_checkpoint,
                                 const simmpi::WorldSnapshot& at_kill) override;

 private:
  RecoverySpec spec_;
};

/// (b) Warm spare-rank failover: the FaultyIdentifier's faulty-rank set is
/// replaced by pre-allocated spares and the job resumes from the survivors'
/// at-kill state. Each failover consumes one spare per replaced rank;
/// exhausting the pool means giving up.
class SpareFailoverPolicy final : public core::RecoveryAction {
 public:
  /// Time to splice the spares in and resume from the survivors' state.
  static constexpr sim::Time kFailoverCost = 5 * sim::kSecond;

  explicit SpareFailoverPolicy(const RecoverySpec& spec)
      : spares_left_(spec.spare_count) {}

  std::string_view policy_name() const noexcept override { return "spare"; }
  int spares_left() const noexcept { return spares_left_; }
  core::RecoveryDecision on_kill(const core::RecoveryVerdict& verdict,
                                 const simmpi::WorldSnapshot* last_checkpoint,
                                 const simmpi::WorldSnapshot& at_kill) override;

 private:
  int spares_left_ = 0;
};

/// (c) Team replication (TeaMPI-style): `replicas` skew-staggered worlds
/// run concurrently — billed concurrently too (su_multiplier) — and on a
/// kill the detector arbitrates which team is hung and promotes the
/// healthy one, which trails by one kReplicaSkew cadence. A degraded
/// verdict (the detector's own tool faults were active) doubles the
/// arbitration cost: the promoted team must be re-verified before trusting
/// a second-hand kill. Only replicas - 1 promotions exist.
class TeamReplicationPolicy final : public core::RecoveryAction {
 public:
  /// Stagger between teams: the healthy team trails the lead by this much,
  /// so a switch resumes from roughly kill - skew.
  static constexpr sim::Time kReplicaSkew = 15 * sim::kSecond;
  /// Verdict-arbitration time before promoting a replica; doubled when the
  /// verdict is degraded.
  static constexpr sim::Time kArbitrationCost = 2 * sim::kSecond;

  explicit TeamReplicationPolicy(const RecoverySpec& spec)
      : replicas_(spec.replicas), switches_left_(spec.replicas - 1) {}

  std::string_view policy_name() const noexcept override { return "team"; }
  sim::Time checkpoint_interval() const noexcept override {
    return kReplicaSkew;
  }
  double su_multiplier() const noexcept override {
    return static_cast<double>(replicas_);
  }
  int switches_left() const noexcept { return switches_left_; }
  core::RecoveryDecision on_kill(const core::RecoveryVerdict& verdict,
                                 const simmpi::WorldSnapshot* last_checkpoint,
                                 const simmpi::WorldSnapshot& at_kill) override;

 private:
  int replicas_ = 0;
  int switches_left_ = 0;
};

/// Instantiate the policy a spec names; nullptr for kNone.
std::unique_ptr<core::RecoveryAction> make_policy(const RecoverySpec& spec);

}  // namespace parastack::recover
