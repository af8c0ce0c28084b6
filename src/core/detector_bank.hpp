#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/detector_base.hpp"

namespace parastack::core {

/// Owns any number of Detector implementations attached to one simulated
/// job (one sim::Engine / simmpi::World), so K detector variants can be
/// compared on the *same* trial instead of K re-simulations.
///
/// The bank resolves telemetry-label collisions at add() time (a second
/// "parastack" becomes "parastack#2"), starts and stops all detectors
/// together, and preserves attachment order — the harness treats the first
/// detector as the run's primary (kill-on-detection) one.
class DetectorBank {
 public:
  DetectorBank() = default;
  DetectorBank(const DetectorBank&) = delete;
  DetectorBank& operator=(const DetectorBank&) = delete;

  /// Take ownership; uniquifies the detector's label against the bank.
  /// Returns the detector for further wiring (callbacks, networks).
  Detector& add(std::unique_ptr<Detector> detector);

  void start_all();
  void stop_all() noexcept;

  std::size_t size() const noexcept { return detectors_.size(); }
  bool empty() const noexcept { return detectors_.empty(); }
  Detector& at(std::size_t index) { return *detectors_[index]; }
  const Detector& at(std::size_t index) const { return *detectors_[index]; }

 private:
  std::vector<std::unique_ptr<Detector>> detectors_;
};

}  // namespace parastack::core
