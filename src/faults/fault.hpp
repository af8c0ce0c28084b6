#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "simmpi/types.hpp"

namespace parastack::faults {

/// The fault taxonomy of paper §1: computation-phase errors (infinite loop /
/// stuck process, frozen node) and communication-phase errors (deadlock,
/// lost message). Transient slowdowns are not faults but are injected with
/// the same machinery to exercise the detector's §3.3 filter. Faults that
/// hit ParaStack's own monitor processes live in ToolFaultPlan below.
enum class FaultType : std::uint8_t {
  kNone,
  kComputeHang,        ///< victim sticks in user code (paper's injected sleep)
  kCommDeadlock,       ///< victim sticks inside an MPI call, never completes
  kTransientSlowdown,  ///< victim's whole node computes slower for a while
  kNodeFreeze,         ///< victim's whole node stops making progress
};

std::string_view fault_type_name(FaultType type) noexcept;

struct FaultPlan {
  FaultType type = FaultType::kNone;
  simmpi::Rank victim = -1;    ///< victim rank (its node for node faults)
  sim::Time trigger_time = 0;  ///< earliest activation instant
  // kTransientSlowdown only:
  sim::Time slowdown_duration = 10 * sim::kSecond;
  double slowdown_factor = 12.0;
};

/// One scheduled death of a per-node monitor process.
struct MonitorCrash {
  /// Node id of the dying monitor. -1 = pick a random non-lead monitor
  /// (drawn from the plan seed when the plan is armed, so campaigns stay
  /// positionally deterministic).
  int monitor = -1;
  sim::Time at = 0;  ///< crash instant (virtual time)
};

/// Tool-side fault model: faults that hit ParaStack's own monitoring
/// substrate instead of the application. Partial-count messages between
/// per-node monitors and the lead can be lost or delayed, and monitors
/// (including the lead) can crash outright. All randomness comes from
/// `seed`; the harness derives it from the positional trial seed so
/// campaign output stays byte-identical for any `--jobs` worker count.
struct ToolFaultPlan {
  /// Probability that one partial-count message transmission is lost.
  double loss_probability = 0.0;
  /// Mean of an exponential extra delivery delay per message (0 = none).
  sim::Time delay_mean = 0;
  /// Scheduled monitor deaths, applied in time order.
  std::vector<MonitorCrash> monitor_crashes;
  /// Crash whoever is lead at this instant (exercises failover).
  std::optional<sim::Time> lead_crash_at;

  /// RNG seed for loss/delay/victim draws. 0 = derive from the run seed.
  std::uint64_t seed = 0;

  /// True when the plan injects anything at all. An inactive plan is the
  /// monitor network's default: every hop is delivered at once.
  bool active() const noexcept {
    return loss_probability > 0.0 || delay_mean > 0 ||
           !monitor_crashes.empty() || lead_crash_at.has_value();
  }
};

/// What actually happened during the run (activation may lag the trigger:
/// program-driven hangs wait for the next eligible action).
struct FaultRecord {
  FaultType type = FaultType::kNone;
  simmpi::Rank victim = -1;
  sim::Time planned_trigger = 0;
  sim::Time activated_at = -1;

  bool activated() const noexcept { return activated_at >= 0; }
};

}  // namespace parastack::faults
