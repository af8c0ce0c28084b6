#include "fleet/fleet.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <utility>

#include "obs/journal.hpp"
#include "util/check.hpp"

namespace parastack::fleet {

namespace {

/// Pulls the ingestion-relevant slice out of a tenant's recorded stream:
/// every detector sample (with its coverage) and every verdict, shifted
/// onto the fleet timeline by the tenant's admission offset.
class SampleCollector final : public obs::TelemetrySink {
 public:
  SampleCollector(int tenant, sim::Time offset, std::vector<SampleRecord>& out)
      : tenant_(tenant), offset_(offset), out_(out) {}

  void on_event(const obs::Event& event) override {
    if (const auto* e = std::get_if<obs::SampleEvent>(&event)) {
      out_.push_back({tenant_, offset_ + e->time, e->coverage, false});
    } else if (const auto* d = std::get_if<obs::DetectionEvent>(&event)) {
      out_.push_back({tenant_, offset_ + d->time, 1.0, true});
    }
  }

 private:
  int tenant_;
  sim::Time offset_;
  std::vector<SampleRecord>& out_;
};

int monitors_for(const harness::RunConfig& config) {
  const int cores = config.platform.cores_per_node;
  return (config.nranks + cores - 1) / cores;
}

/// Monitors a job holds until its end instant, earliest end on top.
using Release = std::pair<sim::Time, int>;  // (end instant, monitors)
using ReleaseQueue =
    std::priority_queue<Release, std::vector<Release>, std::greater<Release>>;

/// The planning walk: simulate exactly the tenants the admission walk will
/// admit (always recorded: the recordings feed the journal replay and the
/// ingestion layer), and leave every other entry empty. Going in arrival
/// order, it keeps a batch of admitted tenants whose end instants are not
/// known yet. A tenant that fits while every batched tenant still holds its
/// monitors is admitted at once. One that would fit only once some batched
/// tenant has ended makes the batch run first (across `config.jobs`
/// workers), so it is decided on exact end instants. One that does not fit
/// even then is refused and never simulated. Which tenants run, and in
/// which batch, depends only on end instants, never on the worker count.
std::vector<harness::RecordedRun> simulate_admitted(
    const FleetConfig& config, const std::vector<Arrival>& arrivals) {
  const bool spans =
      config.telemetry != nullptr && config.telemetry->wants_rank_spans();
  const auto fits = [&](int in_use, int monitors) {
    return config.monitor_pool <= 0 ||
           in_use + monitors <= config.monitor_pool;
  };
  std::vector<harness::RecordedRun> recorded(arrivals.size());
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
        static_cast<int>(batch.size()), config.jobs, spans, [&](int k) {
          harness::RunConfig c =
              arrivals[batch[static_cast<std::size_t>(k)]].config;
          c.perf = config.perf;
          return c;
        });
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Arrival& arrival = arrivals[batch[k]];
      releases.push({arrival.at + runs[k].result.end_time,
                     monitors_for(arrival.config)});
      recorded[batch[k]] = std::move(runs[k]);
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
  return recorded;
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
  const bool multi = n > 1;

  // Phase 1: simulate the tenants admission will admit.
  std::vector<harness::RecordedRun> recorded =
      simulate_admitted(config, arrivals);

  // Phase 2: the admission walk, in arrival order. Monitors release at the
  // instant the owning job ends.
  FleetResult out;
  out.pool_capacity = config.monitor_pool;
  sched::MonitorPool pool(config.monitor_pool);
  ReleaseQueue releases;
  obs::perf::Counter* perf_admitted = nullptr;
  obs::perf::Counter* perf_refused = nullptr;
  obs::perf::HighWater* perf_pool = nullptr;
  if (multi && config.perf != nullptr) {
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
    PS_CHECK(recorded[static_cast<std::size_t>(i)].recording != nullptr,
             "fleet admitted a tenant the planning walk did not simulate");
    tenant.pool_in_use = pool.in_use();
    PS_PERF_ADD(perf_admitted, 1);
    PS_PERF_OBSERVE(perf_pool,
                    static_cast<std::uint64_t>(pool.in_use()));
    tenant.admitted = true;
    tenant.run = std::move(recorded[static_cast<std::size_t>(i)].result);
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
  out.pool_refusals = pool.refusals();

  // Phase 3: stream every admitted tenant's samples through the central
  // ingestion layer, merged into fleet-timeline order. Ingestion observes
  // the detector streams — it never feeds back into them, which is what
  // makes tenant isolation hold by construction.
  std::vector<SampleRecord> records;
  for (int i = 0; i < n; ++i) {
    const TenantResult& tenant = out.tenants[static_cast<std::size_t>(i)];
    if (!tenant.admitted) continue;
    SampleCollector collector(tenant.tenant, tenant.arrival, records);
    recorded[static_cast<std::size_t>(i)].recording->replay(collector);
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const SampleRecord& a, const SampleRecord& b) {
                     return a.at < b.at;
                   });
  Ingestor ingestor(config.ingest, n,
                    multi ? config.perf : nullptr);
  for (const SampleRecord& record : records) ingestor.push(record);
  ingestor.finish();
  out.ingest = ingestor.stats();
  out.tenant_ingest.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) out.tenant_ingest.push_back(ingestor.tenant(t));

  // Phase 4: telemetry replay in tenant order. Multi-tenant fleets bracket
  // each admitted tenant's section with its admission decision; a
  // single-tenant fleet replays the bare stream — byte-identical to the
  // legacy single-job path.
  if (config.telemetry != nullptr) {
    for (int i = 0; i < n; ++i) {
      const TenantResult& tenant = out.tenants[static_cast<std::size_t>(i)];
      if (multi) {
        obs::FleetAdmitEvent event;
        event.time = tenant.arrival;
        event.tenant = tenant.tenant;
        event.admitted = tenant.admitted;
        event.monitors = tenant.monitors;
        event.pool_in_use = tenant.pool_in_use;
        event.pool_capacity = config.monitor_pool > 0 ? config.monitor_pool : 0;
        config.telemetry->on_event(event);
      }
      if (tenant.admitted) {
        recorded[static_cast<std::size_t>(i)].recording->replay(
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
      recorded[static_cast<std::size_t>(i)].recording->replay(journal);
      out.tenant_journals[static_cast<std::size_t>(i)] = stream.str();
    }
  }
  return out;
}

}  // namespace parastack::fleet
