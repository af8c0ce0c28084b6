#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/time.hpp"

namespace parastack::recover {

/// The replication-style fault-tolerance policies closing the detection
/// loop (ROADMAP "Detect -> recover"; TeaMPI / FTHP-MPI in PAPERS.md).
enum class RecoveryPolicy : std::uint8_t {
  kNone,               ///< kill-on-detection only (the paper's baseline)
  kCheckpointRestart,  ///< periodic checkpoints, rollback on kill
  kSpareFailover,      ///< warm spares replace the identified faulty ranks
  kTeamReplication,    ///< skew-staggered replica worlds, detector arbitrates
};

/// Stable lowercase name ("none" | "ckpt" | "spare" | "team"); also the
/// psim --recovery spelling and the telemetry label.
std::string_view recovery_policy_name(RecoveryPolicy policy) noexcept;

/// Full parameterization of one recovery policy. Every duration is modeled
/// (virtual time); the defaults are deliberately conservative so a policy
/// turned on without tuning still shows its cost structure.
struct RecoverySpec {
  RecoveryPolicy policy = RecoveryPolicy::kNone;

  // Checkpoint/restart:
  sim::Time checkpoint_interval = 60 * sim::kSecond;
  /// In-world cost of one coordinated checkpoint, charged to every
  /// progressing rank (blocked ranks were waiting anyway).
  sim::Time checkpoint_cost = sim::kSecond;
  /// Relaunch + state-load time between a kill and the restarted attempt.
  sim::Time restart_cost = 20 * sim::kSecond;

  // Warm spare-rank failover:
  int spare_count = 2;
  /// Time to splice the spares in and resume from the survivors' state.
  sim::Time failover_cost = 5 * sim::kSecond;

  // Team replication:
  int replicas = 2;
  /// Stagger between teams: the healthy team trails the lead by this much,
  /// so a switch resumes from roughly kill - skew.
  sim::Time replica_skew = 15 * sim::kSecond;
  /// Verdict-arbitration time before promoting a replica; doubled when the
  /// verdict is degraded (the detector's own tool faults were active).
  sim::Time arbitration_cost = 2 * sim::kSecond;

  /// Restores allowed before a kill escalates to give-up (all policies).
  int max_restarts = 3;
  /// Attempts 1..refault_attempts re-arm the application fault (same victim
  /// and relative trigger), modeling a fault that survives the restart —
  /// how give-up and recovery-races-a-second-hang are exercised.
  int refault_attempts = 0;

  bool active() const noexcept { return policy != RecoveryPolicy::kNone; }
  bool operator==(const RecoverySpec&) const = default;
};

/// Parse the psim --recovery syntax:
///   none | ckpt[:INTERVAL,COST] | spare[:COUNT] | team[:REPLICAS]
/// Durations are seconds (decimals allowed). Malformed input -> nullopt;
/// unknown policy names are rejected, never ignored.
std::optional<RecoverySpec> parse_recovery(std::string_view text);

}  // namespace parastack::recover
