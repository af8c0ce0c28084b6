#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace parastack::core {

/// C: number of monitored processes per set, fixed at 10 by the paper
/// (§3.3 justifies the choice). The timeout baseline monitors as many.
inline constexpr int kMonitoredCount = 10;

/// ParaStack configuration (paper §3.3 "Parameter Setting"). The only knob
/// the paper expects users to touch is `alpha`; everything else is the
/// published default or an ablation switch. The parameters the paper fixes
/// are constants next to the stage that reads them (core/pipeline.hpp).
struct DetectorConfig {
  /// I: initial maximum sampling interval; samples land uniformly in
  /// [I/2, 3I/2] (mean I). Auto-doubled by the runs test (§3.1).
  sim::Time initial_interval = sim::from_millis(400);

  /// Significance level; hang confidence is 1 - alpha. Paper default 0.1%.
  double alpha = 0.001;

  /// Ablation switches (defaults = the paper's tool).
  bool enable_set_alternation = true;
  bool enable_interval_tuning = true;
  /// Off by default (paper-faithful): hang-time samples keep feeding the
  /// model. Pollution is self-limiting — detection outruns it — while
  /// freezing would *underestimate* the healthy suspicion mass for
  /// collective-heavy apps (FT) and invite false alarms. Ablation:
  /// bench_ablation_model_freeze.
  bool freeze_model_during_streak = false;

  std::uint64_t seed = 0xde7ec702;
};

}  // namespace parastack::core
