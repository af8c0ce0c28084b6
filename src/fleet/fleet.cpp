#include "fleet/fleet.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <sstream>
#include <utility>

#include "obs/journal.hpp"
#include "obs/perf.hpp"
#include "util/check.hpp"

namespace parastack::fleet {

namespace {

int monitors_for(const harness::RunConfig& config) {
  const int cores = config.platform.cores_per_node;
  return (config.nranks + cores - 1) / cores;
}

/// Monitors a job holds until its end instant, earliest end on top.
using Release = std::pair<sim::Time, int>;  // (end instant, monitors)
using ReleaseQueue =
    std::priority_queue<Release, std::vector<Release>, std::greater<Release>>;

/// The planning walk: simulate exactly the tenants the admission walk will
/// admit, and leave every other entry empty. A run is recorded only when
/// something replays it: the fleet's telemetry or the captured tenant
/// journals. Going in arrival order, it keeps a batch of admitted tenants
/// whose end instants are not known yet. A tenant that fits while every
/// batched tenant still holds its monitors is admitted at once. One that
/// would fit only once some batched tenant has ended makes the batch run
/// first (across `config.jobs` workers), so it is decided on exact end
/// instants. One that does not fit even then is refused and never
/// simulated. Which tenants run, and in which batch, depends only on end
/// instants, never on the worker count.
std::vector<std::optional<harness::RecordedRun>> simulate_admitted(
    const FleetConfig& config, const std::vector<Arrival>& arrivals) {
  std::optional<bool> record_spans;  // nullopt: nothing is recorded
  if (config.telemetry != nullptr || config.capture_tenant_journals) {
    record_spans =
        config.telemetry != nullptr && config.telemetry->wants_rank_spans();
  }
  const auto fits = [&](int in_use, int monitors) {
    return config.monitor_pool <= 0 ||
           in_use + monitors <= config.monitor_pool;
  };
  std::vector<std::optional<harness::RecordedRun>> simulated(arrivals.size());
  std::vector<std::size_t> batch;  // admitted, not simulated yet
  int batch_monitors = 0;
  int held = 0;  // monitors of simulated tenants that have not ended
  ReleaseQueue releases;
  const auto release_until = [&](sim::Time at) {
    while (!releases.empty() && releases.top().first <= at) {
      held -= releases.top().second;
      releases.pop();
    }
  };
  const auto simulate_batch = [&] {
    std::vector<harness::RecordedRun> runs = harness::run_recorded(
        static_cast<int>(batch.size()), config.jobs, record_spans, [&](int k) {
          harness::RunConfig c =
              arrivals[batch[static_cast<std::size_t>(k)]].config;
          c.perf = config.perf;
          return c;
        });
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Arrival& arrival = arrivals[batch[k]];
      releases.push({arrival.at + runs[k].result.end_time,
                     monitors_for(arrival.config)});
      simulated[batch[k]] = std::move(runs[k]);
    }
    held += batch_monitors;
    batch.clear();
    batch_monitors = 0;
  };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const int monitors = monitors_for(arrivals[i].config);
    release_until(arrivals[i].at);
    if (!fits(held + batch_monitors, monitors)) {
      if (!fits(held, monitors)) continue;  // refused even if the batch ended
      simulate_batch();
      release_until(arrivals[i].at);
      if (!fits(held, monitors)) continue;
    }
    batch.push_back(i);
    batch_monitors += monitors;
  }
  if (!batch.empty()) simulate_batch();
  return simulated;
}

/// Replay the audited lifecycle of an admitted tenant from its attempt
/// provenance, on the fleet timeline.
std::vector<sched::JobLifecycle::Transition> audit_lifecycle(
    sim::Time admit, const harness::RunResult& run) {
  // Generous restart budget: the driver narrates what the run already did;
  // give-up is replayed explicitly, not re-derived.
  sched::JobLifecycle lc(static_cast<int>(run.attempts.size()) + 1);
  lc.launch(admit);
  if (run.attempts.size() > 1) {
    for (std::size_t i = 0; i + 1 < run.attempts.size(); ++i) {
      lc.kill(admit + run.attempts[i].end_time);
      lc.try_restore(admit + run.attempts[i].end_time);
      lc.resume(admit + run.attempts[i + 1].start_time);
    }
  }
  const sim::Time end = admit + run.end_time;
  if (run.completed) {
    lc.complete(end);
  } else if (run.recovery.gave_up) {
    lc.kill(end);
    lc.give_up(end);
  } else if (run.end_time < run.walltime) {
    lc.kill(end);  // a detection verdict ended the job early
  } else {
    lc.expire(end);
  }
  return lc.history();
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  const std::vector<Arrival> arrivals =
      generate_arrivals(config.arrivals, config.base);
  const int n = static_cast<int>(arrivals.size());

  // Phase 1: simulate the tenants admission will admit.
  std::vector<std::optional<harness::RecordedRun>> simulated =
      simulate_admitted(config, arrivals);

  // Phase 2: the admission walk, in arrival order. Monitors release at the
  // instant the owning job ends.
  FleetResult out;
  sched::MonitorPool pool(config.monitor_pool);
  ReleaseQueue releases;
  obs::perf::Counter* perf_admitted = nullptr;
  obs::perf::Counter* perf_refused = nullptr;
  obs::perf::HighWater* perf_pool = nullptr;
  if (config.perf != nullptr) {
    perf_admitted = config.perf->counter("fleet.admitted");
    perf_refused = config.perf->counter("fleet.refused");
    perf_pool = config.perf->high_water("fleet.pool.monitors");
  }
  for (int i = 0; i < n; ++i) {
    const Arrival& arrival = arrivals[static_cast<std::size_t>(i)];
    while (!releases.empty() && releases.top().first <= arrival.at) {
      pool.release(releases.top().second);
      releases.pop();
    }
    TenantResult tenant;
    tenant.tenant = arrival.tenant;
    tenant.arrival = arrival.at;
    tenant.monitors = monitors_for(arrival.config);
    tenant.ticket.cores_per_node = arrival.config.platform.cores_per_node;
    tenant.ticket.nodes = tenant.monitors;
    tenant.ticket.job_name =
        std::string(workloads::bench_name(arrival.config.bench));
    if (!pool.try_acquire(tenant.monitors)) {
      // Refusal-without-burn: terminal, never billed, never replayed.
      sched::JobLifecycle lc;
      lc.refuse(arrival.at);
      tenant.lifecycle = lc.history();
      tenant.pool_in_use = pool.in_use();
      out.bill.add_refusal();
      PS_PERF_ADD(perf_refused, 1);
      out.tenants.push_back(std::move(tenant));
      continue;
    }
    std::optional<harness::RecordedRun>& run =
        simulated[static_cast<std::size_t>(i)];
    PS_CHECK(run.has_value(),
             "fleet admitted a tenant the planning walk did not simulate");
    tenant.pool_in_use = pool.in_use();
    PS_PERF_ADD(perf_admitted, 1);
    PS_PERF_OBSERVE(perf_pool,
                    static_cast<std::uint64_t>(pool.in_use()));
    tenant.admitted = true;
    tenant.run = std::move(run->result);
    tenant.ticket.walltime = tenant.run.walltime;
    tenant.end_at = arrival.at + tenant.run.end_time;
    tenant.lifecycle = audit_lifecycle(arrival.at, tenant.run);
    tenant.charge = sched::settle_recovered(
        tenant.ticket, tenant.run.finish_time,
        tenant.run.completed
            ? std::optional<sim::Time>()
            : std::optional<sim::Time>(tenant.run.end_time),
        tenant.run.recovery.gave_up, tenant.run.recovery.su_multiplier);
    out.bill.add(tenant.ticket, tenant.charge);
    out.makespan = std::max(out.makespan, tenant.end_at);
    releases.push({tenant.end_at, tenant.monitors});
    out.tenants.push_back(std::move(tenant));
  }
  out.pool_high_water = pool.high_water();

  // Phase 3: telemetry replay in tenant order. Each tenant's section opens
  // with its admission decision; an admitted tenant's own stream follows.
  if (config.telemetry != nullptr) {
    for (int i = 0; i < n; ++i) {
      const TenantResult& tenant = out.tenants[static_cast<std::size_t>(i)];
      obs::FleetAdmitEvent event;
      event.time = tenant.arrival;
      event.tenant = tenant.tenant;
      event.admitted = tenant.admitted;
      event.monitors = tenant.monitors;
      event.pool_in_use = tenant.pool_in_use;
      event.pool_capacity = config.monitor_pool > 0 ? config.monitor_pool : 0;
      config.telemetry->on_event(event);
      if (tenant.admitted) {
        simulated[static_cast<std::size_t>(i)]->recording->replay(
            *config.telemetry);
      }
    }
  }
  if (config.capture_tenant_journals) {
    out.tenant_journals.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (!out.tenants[static_cast<std::size_t>(i)].admitted) continue;
      std::ostringstream stream;
      obs::JsonlJournal journal(stream);
      simulated[static_cast<std::size_t>(i)]->recording->replay(journal);
      out.tenant_journals[static_cast<std::size_t>(i)] = stream.str();
    }
  }
  return out;
}

}  // namespace parastack::fleet
