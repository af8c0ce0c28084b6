#include "sim/platform.hpp"

namespace parastack::sim {

Time Platform::transfer_time(std::size_t bytes) const noexcept {
  // bytes / (GB/s) -> ns; 1 Gbps = 0.125 GB/s.
  const double gbytes_per_s = network_bandwidth_gbps * 0.125;
  const double ns = static_cast<double>(bytes) / gbytes_per_s;
  return network_latency + static_cast<Time>(ns);
}

Platform Platform::tardis() {
  Platform p;
  p.name = "Tardis";
  p.cores_per_node = 32;                 // 2x AMD Opteron 6272
  p.compute_scale = 1.9;                 // oldest, slowest cores
  p.network_latency = from_micros(3.0);  // QDR-class InfiniBand
  p.network_bandwidth_gbps = 32.0;
  p.noise_cv = 0.05;
  p.slowdowns_per_node_hour = 0.05;
  p.slowdown_mean_duration = 5 * kSecond;
  p.slowdown_factor = 3.0;
  return p;
}

Platform Platform::tianhe2() {
  Platform p;
  p.name = "Tianhe-2";
  p.cores_per_node = 24;                 // 2x E5-2692
  p.compute_scale = 1.0;                 // reference machine
  p.network_latency = from_micros(1.5);  // TH Express-2
  p.network_bandwidth_gbps = 112.0;
  p.noise_cv = 0.02;
  // "typically in less than 4 runs out of a total of 50 runs" saw a
  // transient slowdown (§3.3) -> rare but present.
  p.slowdowns_per_node_hour = 0.015;
  p.slowdown_mean_duration = 5 * kSecond;
  p.slowdown_factor = 3.0;
  return p;
}

Platform Platform::stampede() {
  Platform p;
  p.name = "Stampede";
  p.cores_per_node = 16;  // 2x Xeon E5-2680
  p.compute_scale = 1.15;
  p.network_latency = from_micros(2.0);  // FDR InfiniBand
  p.network_bandwidth_gbps = 56.0;
  p.noise_cv = 0.06;  // high utilization -> noisier
  p.slowdowns_per_node_hour = 0.06;
  p.slowdown_mean_duration = 6 * kSecond;
  p.slowdown_factor = 4.0;
  return p;
}

std::optional<Platform> platform_by_name(std::string_view name) {
  for (Platform preset :
       {Platform::tardis(), Platform::tianhe2(), Platform::stampede()}) {
    if (preset.name == name) return preset;
  }
  return std::nullopt;
}

}  // namespace parastack::sim
