#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "obs/telemetry.hpp"

namespace parastack::obs {

/// Event journal: one JSON object per line, in emission order. Every value
/// is derived from the virtual clock and the seed, so two runs with the
/// same seed produce byte-identical journals — the golden-file property the
/// determinism tests pin down.
///
/// Rank spans are journalled only when `record_rank_spans` is set: they
/// fire per simulated action and would swamp the detector's signal (use the
/// ChromeTraceWriter for timelines).
///
/// Each line is built in one reused buffer and handed to the stream with a
/// single write as its event fires; lines are never held back across
/// events.
class JsonlJournal final : public TelemetrySink {
 public:
  struct Options {
    bool record_rank_spans = false;
  };

  explicit JsonlJournal(std::ostream& out) : out_(out) {}
  JsonlJournal(std::ostream& out, Options options)
      : out_(out), options_(options) {}

  void on_sample(const SampleEvent& e) override;
  void on_runs_test(const RunsTestEvent& e) override;
  void on_interval(const IntervalEvent& e) override;
  void on_streak(const StreakEvent& e) override;
  void on_filter(const FilterEvent& e) override;
  void on_sweep(const SweepEvent& e) override;
  void on_hang(const HangEvent& e) override;
  void on_slowdown(const SlowdownEvent& e) override;
  void on_detection(const DetectionEvent& e) override;
  void on_monitor_sample(const MonitorSampleEvent& e) override;
  void on_monitor_level(const MonitorLevelEvent& e) override;
  void on_monitor_crash(const MonitorCrashEvent& e) override;
  void on_lead_failover(const LeadFailoverEvent& e) override;
  void on_tree_failover(const TreeFailoverEvent& e) override;
  void on_sample_timeout(const SampleTimeoutEvent& e) override;
  void on_degraded_mode(const DegradedModeEvent& e) override;
  void on_phase_change(const PhaseChangeEvent& e) override;
  void on_fault(const FaultEvent& e) override;
  void on_run_start(const RunStartEvent& e) override;
  void on_run_end(const RunEndEvent& e) override;
  void on_recovery(const RecoveryEvent& e) override;
  void on_fleet_admit(const FleetAdmitEvent& e) override;
  void on_detection_span(const DetectionSpanEvent& e) override;
  void on_rank_span(const RankSpanEvent& e) override;
  bool wants_rank_spans() const override { return options_.record_rank_spans; }

  std::uint64_t lines_written() const noexcept { return lines_; }

 private:
  /// Render one line — `ev`, then `det` when `detector` is not empty, then
  /// whatever `fields` adds — and write it out.
  template <typename Fields>
  void emit(std::string_view ev, std::string_view detector, Fields&& fields);

  std::ostream& out_;
  Options options_;
  std::string line_;
  std::uint64_t lines_ = 0;
};

}  // namespace parastack::obs
