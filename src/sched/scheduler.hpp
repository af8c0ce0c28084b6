#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace parastack::sched {

/// Which batch system the job script targets (the paper integrates with
/// both Torque and Slurm, §5).
enum class BatchSystem { kSlurm, kTorque };

/// A batch allocation request: nodes x cores for a wall-clock slot.
struct JobTicket {
  int nodes = 1;
  int cores_per_node = 16;
  sim::Time walltime = sim::kHour;
  std::string job_name = "mpi_job";
};

enum class JobEnd {
  kCompleted,              ///< application finished inside the slot
  kKilledOnHangDetection,  ///< ParaStack terminated it early
  kWalltimeExpired,        ///< hung (or slow) job burned the whole slot
  kGaveUp,                 ///< recovery exhausted its retry budget
};

/// Job lifecycle under the detect -> recover loop (DESIGN.md §13):
///
///   pending -> running -> suspected -> killed -> restoring -> running ...
///
/// with the terminal exits completed (app finished), gave-up (retry budget
/// exhausted), expired (walltime ran out in any non-terminal state), and
/// refused (fleet admission found no monitor capacity — the job never
/// launched and is billed nothing, mirroring spare[:N] refusal semantics).
enum class JobState : std::uint8_t {
  kPending,
  kRunning,
  kSuspected,  ///< a detector's suspicion streak is live / verification runs
  kKilled,     ///< kill-on-detection fired; recovery arbitration pending
  kRestoring,  ///< restore/failover/arbitration overhead in progress
  kCompleted,
  kGaveUp,
  kExpired,
  kRefused,  ///< admission denied before launch; no SUs ever burned
};

/// Legality-checked state machine for one job's recovery lifecycle. Every
/// transition records (from, to, at) history, so tests and telemetry can
/// audit the exact path a job took; illegal transitions fail loudly
/// (PS_CHECK) instead of silently corrupting accounting.
class JobLifecycle {
 public:
  /// `max_restarts`: restores allowed before kill escalates to give-up.
  explicit JobLifecycle(int max_restarts = 0) : max_restarts_(max_restarts) {}

  JobState state() const noexcept { return state_; }
  int restarts() const noexcept { return restarts_; }
  int max_restarts() const noexcept { return max_restarts_; }
  bool terminal() const noexcept {
    return state_ == JobState::kCompleted || state_ == JobState::kGaveUp ||
           state_ == JobState::kExpired || state_ == JobState::kRefused;
  }

  void launch(sim::Time at);   ///< pending -> running
  void refuse(sim::Time at);   ///< pending -> refused (terminal)
  void suspect(sim::Time at);  ///< running -> suspected
  void kill(sim::Time at);     ///< running | suspected -> killed
  /// killed -> restoring when restart budget remains, else -> gave-up.
  /// Returns true when a restore began.
  bool try_restore(sim::Time at);
  /// killed | restoring -> gave-up: the policy itself is out of resources
  /// (spares exhausted, no replica left) even though restarts remained.
  void give_up(sim::Time at);
  void resume(sim::Time at);    ///< restoring -> running (counts one restart)
  void complete(sim::Time at);  ///< running | suspected -> completed
  void expire(sim::Time at);    ///< any non-terminal -> expired

  struct Transition {
    JobState from = JobState::kPending;
    JobState to = JobState::kPending;
    sim::Time at = 0;
  };
  const std::vector<Transition>& history() const noexcept { return history_; }

 private:
  void move_to(JobState to, sim::Time at);

  JobState state_ = JobState::kPending;
  int max_restarts_ = 0;
  int restarts_ = 0;
  std::vector<Transition> history_;
};

/// What the machine bills for the job. Supercomputers charge Service Units
/// = nodes x cores x elapsed hours (paper §7.1-V, [9,10]); a hung batch job
/// is billed until its slot expires.
struct JobCharge {
  JobEnd end = JobEnd::kCompleted;
  sim::Time elapsed = 0;  ///< billed wall-clock time
  double service_units = 0.0;
  /// Fraction of the allocated slot ParaStack saved vs. burning it fully
  /// (0 unless end == kKilledOnHangDetection).
  double savings_fraction = 0.0;
};

/// SUs billed for `elapsed` on this allocation.
double service_units(const JobTicket& ticket, sim::Time elapsed);

/// Settle the bill: `finish` is the app's completion time (if it finished),
/// `detection` the hang-detection time (if a detector fired). Without
/// either, the job burns its slot.
JobCharge settle(const JobTicket& ticket, std::optional<sim::Time> finish,
                 std::optional<sim::Time> detection);

/// Settle a multi-attempt (recovered) job. `finish` is the absolute
/// completion time of the final attempt (restarts and restore overheads
/// included); `ended` the instant the job was last killed or abandoned when
/// it did not finish. `gave_up` reclassifies a kill as retry-budget
/// exhaustion; `su_multiplier` scales the bill for replicated allocations
/// (team replication burns `replicas` worlds for the same wall-clock).
JobCharge settle_recovered(const JobTicket& ticket,
                           std::optional<sim::Time> finish,
                           std::optional<sim::Time> ended, bool gave_up,
                           double su_multiplier);

/// Bounded pool of monitor/lead slots a fleet's tenants contend for (one
/// ParaStack monitor per allocated node, §5). `capacity <= 0` means an
/// unbounded pool: every acquire succeeds and nothing is tracked beyond the
/// high-water mark. Refusals are terminal, not queued — a tenant that finds
/// no capacity is turned away without burning anything (the fleet analogue
/// of spare[:N] running out of spares); the fleet counts them in
/// `FleetBill::refused`.
class MonitorPool {
 public:
  explicit MonitorPool(int capacity = 0) : capacity_(capacity) {}

  int in_use() const noexcept { return in_use_; }
  int high_water() const noexcept { return high_water_; }

  /// Claim `monitors` slots; false when the pool cannot hold them.
  /// Requires monitors > 0.
  bool try_acquire(int monitors);
  /// Return `monitors` previously acquired slots.
  void release(int monitors);

 private:
  int capacity_ = 0;
  int in_use_ = 0;
  int high_water_ = 0;
};

/// Fleet-level roll-up of per-tenant JobCharges: the machine-hours ledger
/// behind bench_fleet's "SUs saved" headline (paper §7.1-V scaled from one
/// job to a fleet). Refused tenants are counted but never billed.
struct FleetBill {
  int jobs = 0;  ///< admitted tenants folded in
  int completed = 0;
  int killed = 0;          ///< ended by kill-on-detection
  int expired = 0;         ///< burned their whole slot
  int gave_up = 0;         ///< recovery retry budget exhausted
  int refused = 0;         ///< turned away at admission (billed nothing)
  double su_billed = 0.0;  ///< SUs actually charged across the fleet
  double su_saved = 0.0;   ///< full-slot SUs minus billed, killed jobs only
  /// Fold one settled tenant into the ledger. `ticket` must be the
  /// allocation the charge was settled against.
  void add(const JobTicket& ticket, const JobCharge& charge);
  void add_refusal() { ++refused; }
  /// Node-hours the fleet did not burn thanks to early kills.
  double machine_hours_saved(int cores_per_node) const;
};

/// The submission command the integration would generate (paper §5
/// "Job submission": one ParaStack monitor per node, launched alongside the
/// application). Purely informational here.
std::string submission_command(BatchSystem system, const JobTicket& ticket,
                               const std::string& app_command);

}  // namespace parastack::sched
