#include "core/detector_bank.hpp"

#include <string>

#include "util/check.hpp"

namespace parastack::core {

Detector& DetectorBank::add(std::unique_ptr<Detector> detector) {
  PS_CHECK(detector != nullptr, "bank cannot hold a null detector");
  const auto taken = [this](const std::string& label) {
    for (const auto& d : detectors_) {
      if (d->label() == label) return true;
    }
    return false;
  };
  if (detector->label().empty()) {
    detector->set_label(std::string(detector_kind_name(detector->kind())));
  }
  if (taken(detector->label())) {
    const std::string base = detector->label();
    int n = 2;
    while (taken(base + "#" + std::to_string(n))) ++n;
    detector->set_label(base + "#" + std::to_string(n));
  }
  detectors_.push_back(std::move(detector));
  return *detectors_.back();
}

void DetectorBank::start_all() {
  for (const auto& detector : detectors_) detector->start();
}

void DetectorBank::stop_all() noexcept {
  for (const auto& detector : detectors_) detector->stop();
}

}  // namespace parastack::core
