#include "sched/scheduler.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"

namespace parastack::sched {

double service_units(const JobTicket& ticket, sim::Time elapsed) {
  PS_CHECK(elapsed >= 0, "negative elapsed time");
  const double hours = sim::to_seconds(elapsed) / 3600.0;
  return static_cast<double>(ticket.nodes) *
         static_cast<double>(ticket.cores_per_node) * hours;
}

std::string_view job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kPending: return "pending";
    case JobState::kRunning: return "running";
    case JobState::kSuspected: return "suspected";
    case JobState::kKilled: return "killed";
    case JobState::kRestoring: return "restoring";
    case JobState::kCompleted: return "completed";
    case JobState::kGaveUp: return "gave-up";
    case JobState::kExpired: return "expired";
    case JobState::kRefused: return "refused";
  }
  return "?";
}

void JobLifecycle::move_to(JobState to, sim::Time at) {
  history_.push_back({state_, to, at});
  state_ = to;
}

void JobLifecycle::launch(sim::Time at) {
  PS_CHECK(state_ == JobState::kPending, "launch from non-pending state");
  move_to(JobState::kRunning, at);
}

void JobLifecycle::refuse(sim::Time at) {
  PS_CHECK(state_ == JobState::kPending, "refuse after the job launched");
  move_to(JobState::kRefused, at);
}

void JobLifecycle::suspect(sim::Time at) {
  PS_CHECK(state_ == JobState::kRunning, "suspect from non-running state");
  move_to(JobState::kSuspected, at);
}

void JobLifecycle::clear_suspicion(sim::Time at) {
  PS_CHECK(state_ == JobState::kSuspected,
           "clear_suspicion without a live suspicion");
  move_to(JobState::kRunning, at);
}

void JobLifecycle::kill(sim::Time at) {
  PS_CHECK(state_ == JobState::kRunning || state_ == JobState::kSuspected,
           "kill from a state with no live job");
  move_to(JobState::kKilled, at);
}

bool JobLifecycle::try_restore(sim::Time at) {
  PS_CHECK(state_ == JobState::kKilled, "restore without a kill");
  if (restarts_ >= max_restarts_) {
    move_to(JobState::kGaveUp, at);
    return false;
  }
  move_to(JobState::kRestoring, at);
  return true;
}

void JobLifecycle::give_up(sim::Time at) {
  PS_CHECK(state_ == JobState::kKilled || state_ == JobState::kRestoring,
           "give_up without a kill");
  move_to(JobState::kGaveUp, at);
}

void JobLifecycle::resume(sim::Time at) {
  PS_CHECK(state_ == JobState::kRestoring, "resume without a restore");
  ++restarts_;
  move_to(JobState::kRunning, at);
}

void JobLifecycle::complete(sim::Time at) {
  PS_CHECK(state_ == JobState::kRunning || state_ == JobState::kSuspected,
           "complete from a state with no live job");
  move_to(JobState::kCompleted, at);
}

void JobLifecycle::expire(sim::Time at) {
  PS_CHECK(!terminal(), "expire on an already-terminal job");
  move_to(JobState::kExpired, at);
}

JobCharge settle(const JobTicket& ticket, std::optional<sim::Time> finish,
                 std::optional<sim::Time> detection) {
  JobCharge charge;
  if (finish && (!detection || *finish <= *detection)) {
    charge.end = JobEnd::kCompleted;
    charge.elapsed = std::min(*finish, ticket.walltime);
  } else if (detection && *detection < ticket.walltime) {
    charge.end = JobEnd::kKilledOnHangDetection;
    charge.elapsed = *detection;
    charge.savings_fraction =
        1.0 - static_cast<double>(*detection) /
                  static_cast<double>(ticket.walltime);
  } else {
    charge.end = JobEnd::kWalltimeExpired;
    charge.elapsed = ticket.walltime;
  }
  charge.service_units = service_units(ticket, charge.elapsed);
  return charge;
}

JobCharge settle_recovered(const JobTicket& ticket,
                           std::optional<sim::Time> finish,
                           std::optional<sim::Time> ended, bool gave_up,
                           double su_multiplier) {
  PS_CHECK(su_multiplier > 0.0, "su_multiplier must be positive");
  JobCharge charge = settle(ticket, finish, ended);
  if (gave_up && charge.end == JobEnd::kKilledOnHangDetection) {
    charge.end = JobEnd::kGaveUp;
    // A give-up saved nothing: the slot was abandoned, not reclaimed early.
    charge.savings_fraction = 0.0;
  }
  charge.service_units *= su_multiplier;
  return charge;
}

bool MonitorPool::try_acquire(int monitors) {
  PS_CHECK(monitors > 0, "acquire needs a positive monitor count");
  if (capacity_ > 0 && in_use_ + monitors > capacity_) return false;
  in_use_ += monitors;
  high_water_ = std::max(high_water_, in_use_);
  return true;
}

void MonitorPool::release(int monitors) {
  PS_CHECK(monitors > 0, "release needs a positive monitor count");
  PS_CHECK(monitors <= in_use_, "releasing monitors that were never acquired");
  in_use_ -= monitors;
}

void FleetBill::add(const JobTicket& ticket, const JobCharge& charge) {
  ++jobs;
  switch (charge.end) {
    case JobEnd::kCompleted: ++completed; break;
    case JobEnd::kKilledOnHangDetection: ++killed; break;
    case JobEnd::kWalltimeExpired: ++expired; break;
    case JobEnd::kGaveUp: ++gave_up; break;
  }
  su_billed += charge.service_units;
  if (charge.end == JobEnd::kKilledOnHangDetection) {
    // The slot the scheduler would have billed had the hang burned it out,
    // minus what the early kill actually charged.
    su_saved += service_units(ticket, ticket.walltime) - charge.service_units;
  }
}

double FleetBill::machine_hours_saved(int cores_per_node) const {
  PS_CHECK(cores_per_node > 0, "cores_per_node must be positive");
  return su_saved / static_cast<double>(cores_per_node);
}

std::string submission_command(BatchSystem system, const JobTicket& ticket,
                               const std::string& app_command) {
  const double hours = sim::to_seconds(ticket.walltime) / 3600.0;
  const int hh = static_cast<int>(hours);
  const int mm = static_cast<int>((hours - hh) * 60.0);
  char buffer[512];
  if (system == BatchSystem::kSlurm) {
    std::snprintf(buffer, sizeof buffer,
                  "psrun-slurm --nodes=%d --ntasks-per-node=%d "
                  "--time=%02d:%02d:00 --job-name=%s --monitor-per-node -- %s",
                  ticket.nodes, ticket.cores_per_node, hh, mm,
                  ticket.job_name.c_str(), app_command.c_str());
  } else {
    std::snprintf(buffer, sizeof buffer,
                  "psrun-torque -l nodes=%d:ppn=%d,walltime=%02d:%02d:00 "
                  "-N %s --monitor-per-node -- %s",
                  ticket.nodes, ticket.cores_per_node, hh, mm,
                  ticket.job_name.c_str(), app_command.c_str());
  }
  return buffer;
}

}  // namespace parastack::sched
