#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "harness/runner.hpp"
#include "sim/time.hpp"

namespace parastack::fleet {

/// How tenants show up at the fleet's door.
enum class ArrivalModel {
  kPoisson,  ///< exponential inter-arrival gaps, all tenants run the base job
  kTrace,    ///< regular gaps, workloads rotate through the catalog mix
};

std::string_view arrival_model_name(ArrivalModel model) noexcept;

/// Seeded workload-mix generator for a fleet of `jobs` tenants.
struct ArrivalConfig {
  int jobs = 1;
  ArrivalModel model = ArrivalModel::kPoisson;
  /// Mean gap between consecutive arrivals (Poisson: the exponential mean;
  /// trace: the exact spacing of the schedule).
  sim::Time mean_interarrival = 30 * sim::kSecond;
};

/// One tenant's submission: when it arrives on the fleet timeline and the
/// fully-specified job it wants to run (telemetry/perf pointers unset).
struct Arrival {
  int tenant = 0;
  sim::Time at = 0;
  harness::RunConfig config;
};

/// Deterministic arrival schedule. Tenant 0 is always `base` itself at
/// t = 0 — a single-tenant fleet runs exactly the plain job by
/// construction. Every later tenant draws its gap, seed, and (trace mode)
/// workload from tenant-indexed hashes of base.seed, never from a shared
/// rolling stream, so the first K arrivals are invariant under the fleet
/// size — the property the tenant-isolation oracle pins.
std::vector<Arrival> generate_arrivals(const ArrivalConfig& arrivals,
                                       const harness::RunConfig& base);

}  // namespace parastack::fleet
