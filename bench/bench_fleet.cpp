// The fleet-scale measurement: one detector service admitting a
// thousand-plus concurrent simulated jobs through src/fleet. Three
// readings:
//
//   1. peak concurrency: the most admitted jobs running at once, from the
//      admission ledger (the experiment exits non-zero below 1000), and the
//      wall-clock tenant rate of the whole fleet run;
//   2. fleet machine-hours saved: Fig 10's SU-savings accounting rolled up
//      across the whole fleet;
//   3. cross-tenant isolation while one tenant's tool faults spike: every
//      tenant's journal bytes must be invariant under fleet growth even
//      with the noisy tenant's monitors losing and delaying reports.
//
// The admission ledger and the SU bill are pure functions of the seed;
// only the wall rate varies with the host.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet.hpp"

using namespace parastack;

namespace {

/// The fleet's base tenant: the accuracy-suite erroneous run (LU/C hang on
/// Tardis) at one monitor per tenant, so a 1000-tenant fleet needs 1000
/// concurrent monitor slots.
fleet::FleetConfig base_fleet(int tenants, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.base = bench::erroneous_config(workloads::Bench::kLU, "C", 32,
                                        sim::Platform::tardis());
  config.base.seed = seed;
  config.arrivals.jobs = tenants;
  config.jobs = bench::jobs();
  return config;
}

/// Peak number of simultaneously-running admitted jobs, from the admission
/// ledger's [arrival, end) intervals.
int peak_concurrency(const fleet::FleetResult& result) {
  std::vector<std::pair<sim::Time, int>> edges;
  for (const auto& tenant : result.tenants) {
    if (!tenant.admitted) continue;
    edges.push_back({tenant.arrival, +1});
    edges.push_back({tenant.end_at, -1});
  }
  std::sort(edges.begin(), edges.end());
  int live = 0;
  int peak = 0;
  for (const auto& [at, delta] : edges) {
    live += delta;
    peak = std::max(peak, live);
  }
  return peak;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int bench::fleet_service() {
  // The acceptance bar is >= 1000 concurrent jobs, so even quick mode runs
  // the full thousand; full mode doubles it.
  const int load_tenants = bench::full_scale() ? 2000 : 1000;
  const int isolation_tenants = bench::full_scale() ? 10 : 6;

  // --- Load: >= 1000 tenants arriving over tight Poisson gaps, so their
  // ~3-minute lifetimes all overlap.
  fleet::FleetConfig load = base_fleet(load_tenants, 42);
  load.arrivals.mean_interarrival = 50 * sim::kMillisecond;
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult under_load = fleet::run_fleet(load);
  const double elapsed = seconds_since(t0);

  const int peak = peak_concurrency(under_load);
  const double wall_tenants = load_tenants / elapsed;
  const double hours_saved =
      under_load.bill.machine_hours_saved(load.base.platform.cores_per_node);

  std::printf(
      "load: %d tenants, peak %d concurrent jobs, wall %.1fs "
      "(%.1f tenants/s)\n",
      load_tenants, peak, elapsed, wall_tenants);
  std::printf(
      "  bill: %.1f SUs charged, %.1f SUs saved, "
      "%.1f machine-hours saved\n",
      under_load.bill.su_billed, under_load.bill.su_saved, hours_saved);
  if (peak < 1000) {
    std::fprintf(stderr,
                 "psbench fleet: peak concurrency %d below the 1000-job bar\n",
                 peak);
    return 1;
  }

  // --- Isolation: the base tenant's tool faults spike (sample loss plus
  // delivery delays flood the monitor network with retries), and every
  // tenant's journal must still be byte-invariant when the fleet grows —
  // co-tenant scheduling never leaks into a tenant's detector stream.
  const auto isolation_fleet = [&](int tenants) {
    fleet::FleetConfig config = base_fleet(tenants, 77);
    config.arrivals.model = fleet::ArrivalModel::kTrace;
    config.arrivals.mean_interarrival = 5 * sim::kSecond;
    config.base.tool_faults.loss_probability = 0.25;
    config.base.tool_faults.delay_mean = sim::from_millis(40);
    config.capture_tenant_journals = true;
    return fleet::run_fleet(config);
  };
  const fleet::FleetResult small = isolation_fleet(isolation_tenants);
  const fleet::FleetResult grown = isolation_fleet(isolation_tenants + 1);
  for (int t = 0; t < isolation_tenants; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    if (small.tenant_journals[i] != grown.tenant_journals[i]) {
      std::fprintf(stderr,
                   "psbench fleet: tenant %d's journal moved when a co-tenant "
                   "joined (isolation violated)\n",
                   t);
      return 1;
    }
  }
  std::printf(
      "isolation: %d tenants with tool faults spiking "
      "(loss 0.25, delay 40ms): journals byte-invariant under "
      "fleet growth\n",
      isolation_tenants);
  return 0;
}
