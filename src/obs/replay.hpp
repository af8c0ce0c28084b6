#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace parastack::obs {

/// Records a telemetry stream so it can be replayed into another sink
/// later, in emission order and with identical field values.
///
/// This is what makes telemetry safe under the parallel campaign harness:
/// each concurrent trial gets its own RecordingSink (no shared mutable
/// state on the hot path), and the campaign replays the recordings into
/// the real sink one trial at a time, in trial order — so a journal
/// written through N workers is byte-identical to the serial one.
///
/// Event structs carry `std::string_view` fields that may reference
/// run-local storage (the runner's input string, a platform name); the
/// recorder deep-copies those into an internal arena so a recording
/// outlives the run that produced it.
class RecordingSink final : public TelemetrySink {
 public:
  /// `wants_rank_spans` must mirror the eventual replay target: producers
  /// consult it before building span events, so a mismatch would record a
  /// different stream than the target expects.
  explicit RecordingSink(bool wants_rank_spans = false)
      : wants_rank_spans_(wants_rank_spans) {}

  /// Re-emit every recorded event into `target`, in recording order.
  void replay(TelemetrySink& target) const;

  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  void on_event(const Event& event) override;
  bool wants_rank_spans() const override { return wants_rank_spans_; }

 private:
  /// Copy `view` into the arena and return a view of the stable copy.
  std::string_view intern(std::string_view view);

  bool wants_rank_spans_;
  std::deque<std::string> arena_;  ///< deque: stable addresses on growth
  std::vector<Event> events_;
};

}  // namespace parastack::obs
