// Golden digests of whole telemetry artifacts.
//
// Each case runs one fixed-seed simulation into the telemetry sinks and
// hashes the bytes with FNV-1a. The journal digests were recorded before
// the collective release and the S_crout ECDF were reworked for speed; any
// change to the engine's firing order, the comm engine's release order or
// the robust model's support must reproduce them bit for bit. The metrics,
// Chrome-trace, perf-counter and fleet digests were recorded before the
// JSON writer was reworked, so every byte each sink renders is pinned. The
// CG perf dump counts engine events, so it was re-recorded when request
// completions stopped firing events of their own: only `sim.events_fired`,
// `sim.events_scheduled` and the `sim.queue_depth` high-water moved.
//   - CG-64 (class C) on Stampede, no fault, a fixed 10 ms interval with
//     tuning off: every `sample` line, and with it every S_crout value and
//     every judgement.
//   - LU-64 on Tardis with a compute hang and default tuning: interval
//     doubling (the ECDF's thin_half), the streak, the sweeps and the kill.
//   - The every-pattern synthetic profile on 32 ranks without detectors,
//     with rank spans journalled: the order in which every collective kind
//     releases its ranks.
//   - A fleet of LU-64 tenants arriving as a Poisson stream at a bounded
//     monitor pool: the combined journal, with the `fleet_admit` line of
//     every admitted and every refused tenant.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "../workloads/kitchen_sink_profile.hpp"
#include "fleet/fleet.hpp"
#include "harness/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "simmpi/world.hpp"
#include "workloads/synthetic.hpp"

namespace parastack {
namespace {

struct StreamDigest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t bytes = 0;
  std::size_t lines = 0;
};

StreamDigest digest(const std::string& stream) {
  StreamDigest d;
  for (const char c : stream) {
    d.hash ^= static_cast<unsigned char>(c);
    d.hash *= 0x100000001b3ULL;
    if (c == '\n') ++d.lines;
  }
  d.bytes = stream.size();
  return d;
}

bool contains(const std::string& journal, const char* ev) {
  return journal.find(std::string("\"ev\":\"") + ev + "\"") !=
         std::string::npos;
}

/// Every document the telemetry sinks render for one run: the journal, the
/// metrics document, the Chrome trace and the seed-pure perf-counter dump.
struct Artifacts {
  std::string journal;
  std::string metrics;
  std::string trace;
  std::string perf;
};

Artifacts artifacts_of_run(harness::RunConfig config,
                           harness::RunResult* result) {
  std::ostringstream journal_out;
  obs::JsonlJournal journal(journal_out);
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(registry);
  obs::ChromeTraceWriter trace;
  obs::MultiSink sinks({&journal, &metrics, &trace});
  obs::perf::ProfileRegistry perf;
  config.telemetry = &sinks;
  config.perf = &perf;
  *result = harness::run_one(config);

  Artifacts out;
  out.journal = journal_out.str();
  std::ostringstream metrics_out;
  registry.write_json(metrics_out);
  out.metrics = metrics_out.str();
  std::ostringstream trace_out;
  trace.write(trace_out);
  out.trace = trace_out.str();
  std::ostringstream perf_out;
  perf.write_json(perf_out, /*include_timers=*/false);
  out.perf = perf_out.str();
  return out;
}

struct Golden {
  const char* name;
  std::uint64_t hash;
  std::size_t bytes;
  std::size_t lines;
};

constexpr Golden kGolden[] = {
    {"cg64-stampede-10ms", 0x7958bfb9d8fa3a8dULL, 3270948, 18230},
    {"cg64-stampede-10ms.metrics", 0x0f99cd67e539c6c3ULL, 1098, 0},
    {"cg64-stampede-10ms.trace", 0x511cda706a1950c7ULL, 9380871, 103798},
    {"cg64-stampede-10ms.perf", 0x49bcba509d2bbc88ULL, 462, 0},
    {"lu64-tardis-hang", 0xa82c5a0b88f3e1a5ULL, 210532, 1214},
    {"lu64-tardis-hang.metrics", 0x60701988cb82f086ULL, 1987, 0},
    {"lu64-tardis-hang.trace", 0xa7e9d4990ca6943fULL, 1149752, 12212},
    {"lu64-tardis-hang.perf", 0x0cdac48b558929fcULL, 454, 0},
    {"sink32-spans", 0x02b158d3f6ea459dULL, 2304909, 21286},
    {"fleet6-poisson-pool8", 0xfb8983f24d1a67cbULL, 1092236, 6308},
};

void expect_golden(const std::string& name, const std::string& bytes) {
  const StreamDigest d = digest(bytes);
  for (const Golden& g : kGolden) {
    if (name != g.name) continue;
    EXPECT_TRUE(d.hash == g.hash && d.bytes == g.bytes && d.lines == g.lines)
        << name << ": measured {\"" << name << "\", 0x" << std::hex << d.hash
        << std::dec << "ULL, " << d.bytes << ", " << d.lines << "}";
    return;
  }
  ADD_FAILURE() << "no golden row for " << name << ": measured {\"" << name
                << "\", 0x" << std::hex << d.hash << std::dec << "ULL, "
                << d.bytes << ", " << d.lines << "}";
}

void expect_goldens(const std::string& run, const Artifacts& artifacts) {
  expect_golden(run, artifacts.journal);
  expect_golden(run + ".metrics", artifacts.metrics);
  expect_golden(run + ".trace", artifacts.trace);
  expect_golden(run + ".perf", artifacts.perf);
}

TEST(JournalStreamGolden, CgDenseSamplingMatchesRecordedDigest) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kCG;
  config.input = "C";  // class D's 15 MB journal takes seconds to write
  config.nranks = 64;
  config.platform = sim::Platform::stampede();
  config.seed = 1;
  config.parastack_config().initial_interval = sim::from_millis(10);
  config.parastack_config().enable_interval_tuning = false;
  harness::RunResult result;
  const Artifacts artifacts = artifacts_of_run(config, &result);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.parastack_detected());
  EXPECT_TRUE(contains(artifacts.journal, "sample"));
  expect_goldens("cg64-stampede-10ms", artifacts);
}

TEST(JournalStreamGolden, LuHangMatchesRecordedDigest) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.nranks = 64;
  config.platform = sim::Platform::tardis();
  config.seed = 1;
  config.fault = faults::FaultType::kComputeHang;
  harness::RunResult result;
  const Artifacts artifacts = artifacts_of_run(config, &result);
  EXPECT_TRUE(result.parastack_detected());
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(contains(artifacts.journal, "interval_doubled"));
  EXPECT_TRUE(contains(artifacts.journal, "hang"));
  expect_goldens("lu64-tardis-hang", artifacts);
}

TEST(JournalStreamGolden, EveryCollectiveKindReleasesInRecordedOrder) {
  std::ostringstream out;
  obs::JsonlJournal journal(out, {/*record_rank_spans=*/true});
  simmpi::WorldConfig config;
  config.nranks = 32;
  config.seed = 1;
  simmpi::World world(
      config, workloads::make_factory(workloads::kitchen_sink_profile()));
  world.engine().set_telemetry(&journal);
  world.start();
  EXPECT_TRUE(world.run_until_done(sim::kNever));
  EXPECT_TRUE(contains(out.str(), "rank_span"));
  expect_golden("sink32-spans", out.str());
}

TEST(JournalStreamGolden, BoundedPoolFleetMatchesRecordedDigest) {
  fleet::FleetConfig config;
  config.base.bench = workloads::Bench::kLU;
  config.base.nranks = 64;
  config.base.platform = sim::Platform::tardis();
  config.base.seed = 1;
  config.base.fault = faults::FaultType::kComputeHang;
  config.arrivals.jobs = 6;
  config.arrivals.model = fleet::ArrivalModel::kPoisson;
  config.monitor_pool = 8;  // 4 monitors per tenant: room for two at once
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  const fleet::FleetResult result = fleet::run_fleet(config);
  int refused = 0;
  for (const auto& tenant : result.tenants) refused += !tenant.admitted;
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, 6);
  EXPECT_NE(out.str().find("\"pool_capacity\":8"), std::string::npos);
  expect_golden("fleet6-poisson-pool8", out.str());
}

}  // namespace
}  // namespace parastack
