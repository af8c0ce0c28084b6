#include "core/io_watchdog.hpp"

#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace parastack::core {

IoWatchdog::IoWatchdog(simmpi::World& world, Config config)
    : Detector(DetectorKind::kIoWatchdog), world_(world), config_(config) {
  PS_CHECK(config_.timeout > 0, "watchdog timeout must be positive");
  PS_CHECK(config_.poll_interval > 0, "watchdog poll interval must be positive");
}

void IoWatchdog::start() {
  world_.engine().schedule_after(config_.poll_interval, [this] { poll(); });
}

void IoWatchdog::poll() {
  if (stopped_ || done_ || world_.all_finished()) return;
  // Silence is measured from the last write, or from job start if the
  // application has not written yet.
  const sim::Time last =
      world_.last_io_write() >= 0 ? world_.last_io_write() : 0;
  const sim::Time silence = world_.engine().now() - last;
  if (silence >= config_.timeout) {
    done_ = true;
    Report report{world_.engine().now(), silence};
    reports_.push_back(report);
    Detection detection;
    detection.detected_at = report.detected_at;
    detection.kind = DetectorKind::kIoWatchdog;
    detection.silence = silence;
    if (obs::TelemetrySink* sink = world_.engine().telemetry();
        sink != nullptr) {
      obs::DetectionEvent event;
      event.time = report.detected_at;
      event.detector = label();
      event.kind = detector_kind_name(kind());
      event.silence = silence;
      sink->on_event(event);
    }
    record_detection(detection);
    if (on_hang) on_hang(report);
    return;
  }
  world_.engine().schedule_after(config_.poll_interval, [this] { poll(); });
}

}  // namespace parastack::core
