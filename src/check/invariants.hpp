#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "obs/telemetry.hpp"
#include "sim/time.hpp"
#include "simmpi/world.hpp"

namespace parastack::check {

/// Telemetry-level invariant checker: a sink that validates the legality of
/// the event stream a run emits instead of recording it. Violations are
/// collected as human-readable one-liners (capped — one broken invariant
/// tends to fire on every subsequent event).
///
/// What it holds the stream to:
///   - virtual-time monotonicity: timestamped events arrive in
///     nondecreasing time order (the engine fires in time order, so any
///     regression means a producer stamped the wrong clock);
///   - sample sanity: S_crout and coverage stay within [0, 1], observation
///     indices increase;
///   - detector state-machine legality (per detector label): streaks only
///     advance by one, only reset to what they had, and a hang verdict
///     requires a completed verification streak first;
///   - coverage/quorum bookkeeping: degraded-mode transitions alternate
///     enter/exit, monitor crash events report a strictly shrinking
///     monitor population, failovers re-root away from the dead lead;
///   - detection-latency spans are well-formed: begin >= 0, end >= begin,
///     and the span closes at or before its emission instant;
///   - run framing: at most one run_start/run_end pair per run index, no
///     events after run_end, at most one application fault activation per
///     attempt (each recovery restore re-arms the budget by one);
///   - recovery legality: attempts strictly increase, a restore resumes
///     from a snapshot taken at or before the kill it recovers from, and
///     the next attempt starts after the kill plus the policy overhead.
class InvariantSink final : public obs::TelemetrySink {
 public:
  static constexpr std::size_t kMaxViolations = 16;

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  bool clean() const noexcept { return violations_.empty(); }

  void on_event(const obs::Event& event) override;

 private:
  struct DetectorState {
    std::size_t streak = 0;
    bool verified = false;  ///< a kVerify fired and no reset since
    bool degraded = false;
    std::size_t hangs = 0;
  };

  // Per-kind checks, run after the clock check of every timed kind.
  void check(const obs::SampleEvent& e);
  void check(const obs::RunsTestEvent& e);
  void check(const obs::IntervalEvent& e);
  void check(const obs::StreakEvent& e);
  void check(const obs::FilterEvent& e);
  void check(const obs::SweepEvent& e);
  void check(const obs::HangEvent& e);
  void check(const obs::SlowdownEvent& e);
  void check(const obs::DetectionSpanEvent& e);
  void check(const obs::MonitorSampleEvent& e);
  void check(const obs::MonitorCrashEvent& e);
  void check(const obs::LeadFailoverEvent& e);
  void check(const obs::SampleTimeoutEvent& e);
  void check(const obs::DegradedModeEvent& e);
  void check(const obs::PhaseChangeEvent& e);
  void check(const obs::FaultEvent&);
  void check(const obs::RunStartEvent& e);
  void check(const obs::RunEndEvent& e);
  void check(const obs::RecoveryEvent& e);
  /// Kinds held only to the clock.
  template <typename E>
  void check(const E&) {}

  void violation(std::string what);
  /// Advance the global clock check; `what` names the event for messages.
  void clock(sim::Time t, std::string_view what);
  DetectorState& detector(std::string_view label);

  std::vector<std::string> violations_;
  std::size_t suppressed_ = 0;
  sim::Time last_time_ = -1;
  bool run_started_ = false;
  bool run_ended_ = false;
  int faults_activated_ = 0;
  int fault_budget_ = 1;  ///< each recovery restore re-arms one activation
  int last_recovery_attempt_ = 0;
  int monitors_alive_ = -1;  ///< -1 until the first crash event reports it
  std::map<std::string, DetectorState, std::less<>> detectors_;
};

/// Post-run audits of state that only exists inside run_one: engine clock
/// bookkeeping and the comm engine's send/recv/collective conservation
/// ledger. Install as RunConfig::post_run_probe; violations are appended to
/// `out`. Quiescence is inferred from the result: a run that completed
/// without an activated (non-transient) fault must have matched and retired
/// everything it posted.
void check_run_invariants(const simmpi::World& world,
                          const harness::RunResult& result,
                          std::vector<std::string>& out);

}  // namespace parastack::check
