#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace parastack::obs {

/// Collects the run into Chrome trace-event JSON (the format chrome://tracing
/// and Perfetto load): per-rank compute/MPI/busy-wait spans as complete ("X")
/// events on pid 0, and the detector as its own track on pid 1 — S_crout and
/// streak counters, sample instants, verification windows as duration spans,
/// hang/slowdown/fault markers as global instants.
///
/// Rank tracks are capped at `max_ranks` (timeline tools choke on hundreds
/// of tracks x millions of slices; the detector's signal is the point).
/// Everything buffers in memory; call write() once the run is over.
class ChromeTraceWriter final : public TelemetrySink {
 public:
  struct Options {
    int max_ranks = 8;  ///< record spans for ranks [0, max_ranks)
  };

  ChromeTraceWriter() : ChromeTraceWriter(Options()) {}
  explicit ChromeTraceWriter(Options options);

  void on_event(const Event& event) override;
  bool wants_rank_spans() const override { return options_.max_ranks > 0; }

  /// Emit the complete trace document.
  void write(std::ostream& out) const;

  std::size_t event_count() const noexcept { return events_.size(); }

 private:
  void record(const SampleEvent& e);
  void record(const FilterEvent& e);
  void record(const SweepEvent& e);
  void record(const HangEvent& e);
  void record(const SlowdownEvent& e);
  void record(const MonitorSampleEvent& e);
  void record(const MonitorLevelEvent& e);
  void record(const TreeFailoverEvent& e);
  void record(const PhaseChangeEvent& e);
  void record(const FaultEvent& e);
  void record(const RunStartEvent& e);
  void record(const DetectionSpanEvent& e);
  void record(const RankSpanEvent& e);
  /// Kinds with no place on the timeline.
  template <typename E>
  void record(const E&) {}

  std::string& begin_event();
  void instant(sim::Time t, const char* name, bool global);
  void counter(sim::Time t, const char* name, double value);

  Options options_;
  std::vector<std::string> events_;
  sim::Time verification_started_ = -1;
  std::uint64_t tool_bytes_total_ = 0;
};

}  // namespace parastack::obs
