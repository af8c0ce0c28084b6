// Fleet mode end to end: a single-tenant fleet must write its fleet_admit
// line and then the plain run's journal byte for byte, arrival schedules
// and per-tenant journals must be invariant under co-tenants (the isolation
// oracle), and admission against the bounded monitor pool must refuse
// without burning anything.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fleet/fleet.hpp"
#include "obs/journal.hpp"
#include "obs/perf.hpp"

namespace parastack::fleet {
namespace {

harness::RunConfig small_lu(std::uint64_t seed = 7) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.fault = faults::FaultType::kComputeHang;
  config.background_slowdowns = false;
  return config;
}

int monitors_for(const harness::RunConfig& config) {
  const int cores = config.platform.cores_per_node;
  return (config.nranks + cores - 1) / cores;
}

TEST(Fleet, SingleTenantJournalIsTheAdmitLineThenThePlainRun) {
  // The correctness anchor: --fleet=1 adds exactly one line, tenant 0's
  // admission, and does not perturb a single byte of the plain run's
  // journal after it — no reordering, no altered RNG stream.
  std::ostringstream plain_out;
  {
    obs::JsonlJournal journal(plain_out);
    harness::RunConfig config = small_lu();
    config.telemetry = &journal;
    harness::run_one(config);
  }

  std::ostringstream fleet_out;
  FleetResult result;
  {
    obs::JsonlJournal journal(fleet_out);
    FleetConfig config;
    config.base = small_lu();
    config.arrivals.jobs = 1;
    config.telemetry = &journal;
    result = run_fleet(config);
  }

  obs::FleetAdmitEvent admit;
  admit.admitted = true;
  admit.monitors = monitors_for(small_lu());
  admit.pool_in_use = admit.monitors;
  std::ostringstream admit_line;
  obs::JsonlJournal(admit_line).on_event(admit);

  ASSERT_FALSE(plain_out.str().empty());
  const std::string journal = fleet_out.str();
  const std::size_t body = journal.find('\n') + 1;
  ASSERT_GT(body, 0u);
  EXPECT_EQ(journal.substr(0, body), admit_line.str());
  EXPECT_EQ(journal.substr(body), plain_out.str());
  ASSERT_EQ(result.tenants.size(), 1u);
  EXPECT_TRUE(result.tenants[0].admitted);
  EXPECT_EQ(result.bill.jobs, 1);
}

TEST(Fleet, MultiTenantRegistersFleetCounters) {
  // Every fleet counts its admissions, a one-tenant fleet included.
  for (const int tenants : {1, 2}) {
    obs::perf::ProfileRegistry registry;
    FleetConfig config;
    config.base = small_lu();
    config.arrivals.jobs = tenants;
    config.perf = &registry;
    const FleetResult result = run_fleet(config);
    const auto snapshot = registry.counter_snapshot();
    EXPECT_EQ(snapshot.at("fleet.admitted"),
              static_cast<std::uint64_t>(tenants));
    EXPECT_EQ(snapshot.at("fleet.refused"), 0u);
    EXPECT_EQ(snapshot.at("fleet.pool.monitors.hw"),
              static_cast<std::uint64_t>(result.pool_high_water));
  }
}

TEST(Fleet, ArrivalPrefixIsInvariantUnderFleetSize) {
  // Tenant K's seed, gap, and workload are tenant-indexed hashes, never a
  // shared rolling stream: growing the fleet must not move earlier tenants.
  const harness::RunConfig base = small_lu();
  for (ArrivalModel model : {ArrivalModel::kPoisson, ArrivalModel::kTrace}) {
    ArrivalConfig small;
    small.jobs = 3;
    small.model = model;
    ArrivalConfig large = small;
    large.jobs = 6;
    const auto few = generate_arrivals(small, base);
    const auto many = generate_arrivals(large, base);
    ASSERT_EQ(few.size(), 3u);
    ASSERT_EQ(many.size(), 6u);
    for (std::size_t i = 0; i < few.size(); ++i) {
      EXPECT_EQ(few[i].at, many[i].at) << arrival_model_name(model);
      EXPECT_EQ(few[i].config.seed, many[i].config.seed);
      EXPECT_EQ(few[i].config.bench, many[i].config.bench);
      EXPECT_EQ(few[i].config.input, many[i].config.input);
    }
  }
  // Tenant 0 is always the base job itself at t = 0.
  const auto arrivals = generate_arrivals({}, base);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].at, 0);
  EXPECT_EQ(arrivals[0].config.seed, base.seed);
}

TEST(Fleet, TenantJournalsAreInvariantUnderCoTenants) {
  // The tenant-isolation oracle: a tenant's own journal bytes must not
  // depend on who else shares the fleet.
  const auto journals_of = [](int jobs) {
    FleetConfig config;
    config.base = small_lu();
    config.arrivals.jobs = jobs;
    config.jobs = 2;  // exercise the parallel tenant fan-out too
    config.capture_tenant_journals = true;
    return run_fleet(config).tenant_journals;
  };
  const auto two = journals_of(2);
  const auto three = journals_of(3);
  ASSERT_EQ(two.size(), 2u);
  ASSERT_EQ(three.size(), 3u);
  for (std::size_t i = 0; i < two.size(); ++i) {
    ASSERT_FALSE(two[i].empty());
    EXPECT_EQ(two[i], three[i]) << "tenant " << i;
  }
}

TEST(Fleet, AdmissionRefusesWithoutBurnWhenThePoolIsExhausted) {
  FleetConfig config;
  config.base = small_lu();
  config.arrivals.jobs = 2;
  config.arrivals.model = ArrivalModel::kTrace;
  config.arrivals.mean_interarrival = sim::kMillisecond;  // arrive mid-run
  config.monitor_pool = monitors_for(config.base);  // room for one tenant
  config.capture_tenant_journals = true;
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  const FleetResult result = run_fleet(config);

  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_TRUE(result.tenants[0].admitted);
  EXPECT_FALSE(result.tenants[1].admitted);
  // Refusal-without-burn: the refused tenant is terminal at its arrival
  // instant, billed nothing, and contributes no journal traffic.
  EXPECT_EQ(result.bill.jobs, 1);
  EXPECT_EQ(result.bill.refused, 1);
  ASSERT_EQ(result.tenants[1].lifecycle.size(), 1u);
  EXPECT_EQ(result.tenants[1].lifecycle[0].from, sched::JobState::kPending);
  EXPECT_EQ(result.tenants[1].lifecycle[0].to, sched::JobState::kRefused);
  EXPECT_EQ(result.tenants[1].lifecycle[0].at, result.tenants[1].arrival);
  EXPECT_TRUE(result.tenant_journals[1].empty());
  // The combined stream still narrates the refusal.
  EXPECT_NE(out.str().find("fleet_admit"), std::string::npos);
  EXPECT_NE(out.str().find("\"admitted\":false"), std::string::npos);
}

TEST(Fleet, RefusedTenantIsNeverSimulated) {
  // Admission decides which tenants run: a refused tenant costs no
  // simulation, so the fleet's engine counters are exactly those of its
  // admitted tenant running alone.
  const auto events_fired = [](int tenants) {
    obs::perf::ProfileRegistry registry;
    FleetConfig config;
    config.base = small_lu();
    config.arrivals.jobs = tenants;
    config.arrivals.model = ArrivalModel::kTrace;
    config.arrivals.mean_interarrival = sim::kMillisecond;  // arrive mid-run
    config.monitor_pool = monitors_for(config.base);  // room for one tenant
    config.perf = &registry;
    const FleetResult result = run_fleet(config);
    EXPECT_TRUE(result.tenants[0].admitted);
    if (tenants > 1) {
      EXPECT_FALSE(result.tenants[1].admitted);
    }
    return registry.counter_snapshot().at("sim.events_fired");
  };
  const std::uint64_t alone = events_fired(1);
  EXPECT_GT(alone, 0u);
  EXPECT_EQ(events_fired(2), alone);
}

TEST(Fleet, PoolSlotsReleaseWhenTheOwningJobEnds) {
  // Learn the first job's span, then schedule the second tenant after it:
  // the same one-tenant pool must now admit both.
  FleetConfig probe;
  probe.base = small_lu();
  probe.arrivals.jobs = 1;
  const sim::Time span = run_fleet(probe).makespan;
  ASSERT_GT(span, 0);

  FleetConfig config;
  config.base = small_lu();
  config.arrivals.jobs = 2;
  config.arrivals.model = ArrivalModel::kTrace;
  config.arrivals.mean_interarrival = span + sim::kSecond;
  config.monitor_pool = monitors_for(config.base);
  const FleetResult result = run_fleet(config);
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_TRUE(result.tenants[0].admitted);
  EXPECT_TRUE(result.tenants[1].admitted);
  EXPECT_EQ(result.bill.jobs, 2);
  EXPECT_EQ(result.bill.refused, 0);
  EXPECT_EQ(result.pool_high_water, monitors_for(config.base));
  EXPECT_GE(result.makespan, result.tenants[1].arrival);
}

TEST(Fleet, BillRollsUpEveryAdmittedTenant) {
  FleetConfig config;
  config.base = small_lu();
  config.arrivals.jobs = 4;
  const FleetResult result = run_fleet(config);
  ASSERT_EQ(result.tenants.size(), 4u);
  EXPECT_EQ(result.bill.jobs, 4);
  EXPECT_EQ(result.bill.refused, 0);
  EXPECT_EQ(result.bill.completed + result.bill.killed + result.bill.expired +
                result.bill.gave_up,
            4);
  EXPECT_GT(result.bill.su_billed, 0.0);
  // Every tenant carries an audited lifecycle that reached a terminal state
  // on the fleet timeline.
  for (const TenantResult& tenant : result.tenants) {
    ASSERT_FALSE(tenant.lifecycle.empty());
    EXPECT_EQ(tenant.lifecycle.front().from, sched::JobState::kPending);
    const sched::JobState last = tenant.lifecycle.back().to;
    // Recovery is off in this fleet, so a detected hang ends at the kill;
    // otherwise the audited path must reach a terminal state.
    EXPECT_TRUE(last == sched::JobState::kCompleted ||
                last == sched::JobState::kGaveUp ||
                last == sched::JobState::kExpired ||
                last == sched::JobState::kKilled)
        << sched::job_state_name(last);
    EXPECT_GE(tenant.lifecycle.front().at, tenant.arrival);
  }
}

TEST(Fleet, ResultIsDeterministicAcrossWorkerCounts) {
  // Two inputs: an unbounded pool, where every tenant runs in one batch,
  // and a pool for two tenants where the third arrives while both still
  // run, and the fourth after the first has ended. The walk must simulate
  // the first two before it can decide the third, refuse it, and admit the
  // fourth into the monitors the first released. A fleet with nothing to
  // replay records no tenant stream, and must decide the same.
  FleetConfig probe;
  probe.base = small_lu();
  const sim::Time span = run_fleet(probe).makespan;
  ASSERT_GT(span, 0);
  FleetConfig unbounded;
  unbounded.base = small_lu();
  unbounded.arrivals.jobs = 3;
  FleetConfig bounded;
  bounded.base = small_lu();
  bounded.arrivals.jobs = 4;
  bounded.arrivals.model = ArrivalModel::kTrace;
  bounded.arrivals.mean_interarrival = span * 2 / 5;
  bounded.monitor_pool = 2 * monitors_for(bounded.base);

  for (const FleetConfig& input : {unbounded, bounded}) {
    obs::perf::ProfileRegistry serial_perf;
    obs::perf::ProfileRegistry parallel_perf;
    obs::perf::ProfileRegistry bare_perf;
    const auto run_with = [&input](int workers, bool capture,
                                   obs::perf::ProfileRegistry& registry) {
      FleetConfig config = input;
      config.jobs = workers;
      config.capture_tenant_journals = capture;
      config.perf = &registry;
      return run_fleet(config);
    };
    const FleetResult serial = run_with(1, true, serial_perf);
    const FleetResult parallel = run_with(3, true, parallel_perf);
    const FleetResult bare = run_with(3, false, bare_perf);
    EXPECT_TRUE(bare.tenant_journals.empty());
    for (const auto* other : {&parallel, &bare}) {
      ASSERT_EQ(serial.tenants.size(), other->tenants.size());
      EXPECT_EQ(serial.makespan, other->makespan);
      EXPECT_EQ(serial.bill.jobs, other->bill.jobs);
      EXPECT_EQ(serial.bill.refused, other->bill.refused);
      EXPECT_DOUBLE_EQ(serial.bill.su_billed, other->bill.su_billed);
      EXPECT_DOUBLE_EQ(serial.bill.su_saved, other->bill.su_saved);
      for (std::size_t i = 0; i < serial.tenants.size(); ++i) {
        EXPECT_EQ(serial.tenants[i].admitted, other->tenants[i].admitted);
        EXPECT_EQ(serial.tenants[i].pool_in_use,
                  other->tenants[i].pool_in_use);
        EXPECT_EQ(serial.tenants[i].end_at, other->tenants[i].end_at);
      }
    }
    EXPECT_EQ(serial_perf.counter_snapshot(), parallel_perf.counter_snapshot());
    EXPECT_EQ(serial_perf.counter_snapshot(), bare_perf.counter_snapshot());
    for (std::size_t i = 0; i < serial.tenants.size(); ++i) {
      EXPECT_EQ(serial.tenant_journals[i], parallel.tenant_journals[i]);
    }
  }

  // The bounded input took the path it was built for.
  const FleetResult result = run_fleet(bounded);
  ASSERT_EQ(result.tenants.size(), 4u);
  EXPECT_TRUE(result.tenants[0].admitted);
  EXPECT_TRUE(result.tenants[1].admitted);
  EXPECT_FALSE(result.tenants[2].admitted);
  EXPECT_TRUE(result.tenants[3].admitted);
  EXPECT_LE(result.tenants[0].end_at, result.tenants[3].arrival);
  EXPECT_GT(result.tenants[1].end_at, result.tenants[3].arrival);
}

}  // namespace
}  // namespace parastack::fleet
