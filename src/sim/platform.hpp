#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace parastack::sim {

/// A computing platform model: per-core speed, interconnect, OS noise.
///
/// The three presets correspond to the paper's testbeds. Absolute values are
/// calibrated so the *relationships* the paper depends on hold: Tianhe-2
/// nodes are the fastest and quietest, Stampede is fast but noisier (higher
/// utilization -> more transient slowdowns, §3.3), and Tardis is the slowest
/// with a mid-level noise floor. Cross-platform period differences are what
/// break fixed timeouts in Table 1.
struct Platform {
  std::string name;
  int cores_per_node = 16;

  /// Multiplier applied to workload compute durations (1.0 = reference
  /// machine; larger = slower cores).
  double compute_scale = 1.0;

  /// Interconnect alpha-beta model.
  Time network_latency = from_micros(2.0);  ///< per-message latency
  double network_bandwidth_gbps = 50.0;     ///< per-link bandwidth

  /// Lognormal coefficient of variation applied to every compute segment
  /// (fine-grained OS jitter).
  double noise_cv = 0.03;

  /// Transient slowdowns (paper §3.3): rare node-wide events during which
  /// computation runs `slowdown_factor` times slower.
  double slowdowns_per_node_hour = 0.0;
  Time slowdown_mean_duration = 10 * kSecond;
  double slowdown_factor = 12.0;

  /// Eager/rendezvous protocol switch for point-to-point messages.
  std::size_t eager_threshold_bytes = 64 * 1024;

  /// Time for one message of `bytes` to cross the network.
  Time transfer_time(std::size_t bytes) const noexcept;

  static Platform tardis();
  static Platform tianhe2();
  static Platform stampede();
};

/// The preset named `name` (Tardis, Tianhe-2 or Stampede); nullopt for any
/// other name.
std::optional<Platform> platform_by_name(std::string_view name);

}  // namespace parastack::sim
