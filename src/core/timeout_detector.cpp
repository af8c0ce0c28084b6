#include "core/timeout_detector.hpp"

#include <numeric>

#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace parastack::core {

namespace {

/// "Persistently low": S_crout <= this counts toward the streak.
constexpr double kLowThreshold = 0.1001;

}  // namespace

TimeoutDetector::TimeoutDetector(simmpi::World& world,
                                 trace::StackInspector& inspector,
                                 Config config)
    : Detector(DetectorKind::kTimeout),
      world_(world),
      inspector_(inspector),
      config_(config),
      rng_(config.seed) {
  PS_CHECK(config_.k >= 1, "K must be >= 1");
  std::vector<simmpi::Rank> all(static_cast<std::size_t>(world_.nranks()));
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng_.uniform_int(i)]);
  }
  const auto count = std::min<std::size_t>(
      static_cast<std::size_t>(kMonitoredCount), all.size());
  monitored_.assign(all.begin(), all.begin() + static_cast<long>(count));
}

void TimeoutDetector::start() {
  world_.engine().schedule_after(config_.interval, [this] { tick(); });
}

void TimeoutDetector::tick() {
  // A finished job cannot hang: without this guard a tick that fires after
  // the last rank completed would read the ranks parked in MPI_Finalize as
  // IN_MPI and walk the streak toward a bogus post-completion detection (the
  // harness normally stops stepping at all_finished, but unit tests and
  // zero-length jobs drive the engine directly).
  if (stopped_ || done_ || world_.all_finished()) return;
  int out = 0;
  for (const simmpi::Rank r : monitored_) {
    if (!inspector_.trace(r).in_mpi) ++out;
  }
  const double scrout =
      static_cast<double>(out) / static_cast<double>(monitored_.size());
  if (scrout <= kLowThreshold) {
    ++streak_;
  } else {
    streak_ = 0;
  }
  if (streak_ >= config_.k) {
    done_ = true;
    Report report{world_.engine().now()};
    reports_.push_back(report);
    Detection detection;
    detection.detected_at = report.detected_at;
    detection.kind = DetectorKind::kTimeout;
    if (obs::TelemetrySink* sink = world_.engine().telemetry();
        sink != nullptr) {
      obs::DetectionEvent event;
      event.time = report.detected_at;
      event.detector = label();
      event.kind = detector_kind_name(kind());
      sink->on_event(event);
    }
    record_detection(detection);
    if (on_hang) on_hang(report);
    return;
  }
  world_.engine().schedule_after(config_.interval, [this] { tick(); });
}

}  // namespace parastack::core
