#pragma once

#include <string>
#include <vector>

#include "fleet/arrival.hpp"
#include "harness/campaign.hpp"
#include "sched/scheduler.hpp"

namespace parastack::fleet {

/// A multi-tenant detector-service fleet: tenants arrive from the seeded
/// workload mix, contend for a bounded monitor pool at admission, run as
/// independent simulated jobs, and are billed on one fleet ledger.
struct FleetConfig {
  /// Tenant 0's job and the template every other tenant derives from.
  harness::RunConfig base;
  ArrivalConfig arrivals;
  /// Monitor/lead slots shared by all tenants (one monitor per allocated
  /// node); <= 0 = unbounded. A tenant whose nodes do not fit is refused
  /// outright — never queued, never billed.
  int monitor_pool = 0;
  int jobs = 1;  ///< worker threads for the tenant simulations (0 = auto)
  /// Combined fleet stream: one section per tenant in tenant order, each a
  /// fleet_admit event followed by the tenant's own stream (admitted
  /// tenants only). A one-tenant fleet writes its admit line, then exactly
  /// the plain run's stream. Not owned.
  obs::TelemetrySink* telemetry = nullptr;
  /// Shared counter registry: admitted tenants' runs feed it like campaign
  /// trials do, and the fleet adds fleet.admitted, fleet.refused and the
  /// fleet.pool.monitors high-water. Not owned.
  obs::perf::ProfileRegistry* perf = nullptr;
  /// Capture each tenant's journal bytes separately (tenant-isolation
  /// oracle and per-tenant artifact export).
  bool capture_tenant_journals = false;
};

/// One tenant's fate.
struct TenantResult {
  int tenant = 0;
  sim::Time arrival = 0;
  bool admitted = false;
  int monitors = 0;      ///< per-node monitor slots requested
  int pool_in_use = 0;   ///< pool occupancy right after the decision
  sched::JobTicket ticket;
  /// Defaults when refused: the job never ran.
  harness::RunResult run;
  sched::JobCharge charge;
  sim::Time end_at = 0;  ///< fleet-timeline end (admitted only)
  /// Audited lifecycle path (launch/kill/restore/... transitions on the
  /// fleet timeline; a lone pending->refused edge for refused tenants).
  std::vector<sched::JobLifecycle::Transition> lifecycle;
};

struct FleetResult {
  std::vector<TenantResult> tenants;
  sched::FleetBill bill;
  int pool_high_water = 0;
  sim::Time makespan = 0;  ///< last admitted tenant's end instant
  /// Per-tenant journal bytes (empty unless capture_tenant_journals).
  std::vector<std::string> tenant_journals;
};

/// Run the fleet to completion. Deterministic for a fixed config at any
/// worker count: tenant simulations are independently seeded, recorded
/// privately, and reduced in tenant order (the campaign pattern). Only
/// admitted tenants are simulated: admission depends on earlier tenants'
/// end instants, so admitted tenants run in batches, and a batch runs as
/// soon as a later tenant's decision needs its end instants. A refused
/// tenant is never simulated, billed or replayed.
FleetResult run_fleet(const FleetConfig& config);

}  // namespace parastack::fleet
