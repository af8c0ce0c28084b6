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

  void on_event(const Event& event) override;
  bool wants_rank_spans() const override { return options_.record_rank_spans; }

  std::uint64_t lines_written() const noexcept { return lines_; }

 private:
  std::ostream& out_;
  Options options_;
  std::string line_;
  std::uint64_t lines_ = 0;
};

/// The `ev` tag the journal writes for `event` ("sample", "run_end", ...).
std::string_view event_name(const Event& event);

}  // namespace parastack::obs
