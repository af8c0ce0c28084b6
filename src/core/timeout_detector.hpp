#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/detector_base.hpp"
#include "sim/time.hpp"
#include "simmpi/world.hpp"
#include "trace/inspector.hpp"
#include "util/rng.hpp"

namespace parastack::core {

/// The fixed-(I, K) baseline of paper §3 / Table 1: check S_crout of
/// kMonitoredCount monitored ranks every I; report a hang after K
/// consecutive "low" observations. No model, no tuning — the strawman
/// ParaStack replaces.
class TimeoutDetector final : public Detector {
 public:
  struct Config {
    sim::Time interval = sim::from_millis(400);  ///< I
    int k = 5;                                   ///< K
    std::uint64_t seed = 0x71e0;
  };

  struct Report {
    sim::Time detected_at = 0;
  };

  TimeoutDetector(simmpi::World& world, trace::StackInspector& inspector,
                  Config config);

  void start() override;
  void stop() noexcept override { stopped_ = true; }
  DetectorKind kind() const noexcept override { return DetectorKind::kTimeout; }

  std::function<void(const Report&)> on_hang;

  bool hang_reported() const noexcept { return !reports_.empty(); }
  const std::vector<Report>& reports() const noexcept { return reports_; }
  /// The fixed monitored subset (the baseline has no set alternation —
  /// one of its weaknesses).
  const std::vector<simmpi::Rank>& monitored() const noexcept {
    return monitored_;
  }

 private:
  void tick();

  simmpi::World& world_;
  trace::StackInspector& inspector_;
  Config config_;
  util::Rng rng_;
  std::vector<simmpi::Rank> monitored_;
  int streak_ = 0;
  bool stopped_ = false;
  bool done_ = false;
  std::vector<Report> reports_;
};

}  // namespace parastack::core
