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
// `sim.events_scheduled` and the `sim.queue_depth` high-water moved. Every
// row but `sink32-spans` was re-recorded when the star became a one-level
// tree: each `monitor_sample` line gained `levels` and `root_fan_in`, each
// gather a `monitor_level` line (and a `tree-gather` trace slice), the
// metrics their `monitor.*` level and fan-in summaries, and the perf dumps
// the four `monitor.*` tree counters; every other line stayed as it was.
//   - CG-64 (class C) on Stampede, no fault, a fixed 10 ms interval with
//     tuning off: every `sample` line, and with it every S_crout value and
//     every judgement.
//   - LU-64 on Tardis with a compute hang and default tuning: interval
//     doubling (the ECDF's thin_half), the streak, the sweeps and the kill.
//   - LU-64 on Tianhe-2 with a compute hang, a binary monitor tree, report
//     loss, a random monitor crash, a lead crash and `ckpt:30` recovery:
//     tree gathers, retries, failovers, degraded mode, the checkpoint
//     rollback and the second attempt, with their `monitor.*` and
//     `recover.*` counters.
//   - The every-pattern synthetic profile on 32 ranks without detectors,
//     with rank spans journalled: the order in which every collective kind
//     releases its ranks.
//   - A fleet of LU-64 tenants arriving as a Poisson stream at a bounded
//     monitor pool: the combined journal, with the `fleet_admit` line of
//     every admitted and every refused tenant, and the perf dump of the
//     whole fleet (admission counters and every tenant's engine counts).
// The `lu64-tree-faults-ckpt` rows and `fleet6-poisson-pool8.perf` came
// last, recorded on the code every other row pins. The perf dumps are pure
// functions of the seed, so an accidental blow-up in engine events,
// messages or attempts on any of these paths fails here exactly, on any
// host.

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
#include "recover/spec.hpp"
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
    {"cg64-stampede-10ms", 0x4dbf5c598478fd60ULL, 4399975, 27344},
    {"cg64-stampede-10ms.metrics", 0xfce1e95fb593f2aeULL, 1463, 0},
    {"cg64-stampede-10ms.trace", 0xa87e1647f2e84f12ULL, 10637494, 112912},
    {"cg64-stampede-10ms.perf", 0x40c33e2ca1be562aULL, 567, 0},
    {"lu64-tardis-hang", 0xa86845308a80e06aULL, 280127, 1772},
    {"lu64-tardis-hang.metrics", 0x72beb9643064e3a1ULL, 2309, 0},
    {"lu64-tardis-hang.trace", 0x3f8ff82b714b257eULL, 1227159, 12770},
    {"lu64-tardis-hang.perf", 0xcd3b29e5fece5f3cULL, 555, 0},
    {"lu64-tree-faults-ckpt", 0x1c49038ebf8f03c9ULL, 636006, 2915},
    {"lu64-tree-faults-ckpt.metrics", 0x4ccf94d584b84629ULL, 3260, 0},
    {"lu64-tree-faults-ckpt.trace", 0xe968e38adf58a08bULL, 3184774, 33950},
    {"lu64-tree-faults-ckpt.perf", 0x580201f5de94bda5ULL, 648, 0},
    {"sink32-spans", 0x02b158d3f6ea459dULL, 2304909, 21286},
    {"fleet6-poisson-pool8", 0x1d497071bfd14d31ULL, 1450628, 9181},
    {"fleet6-poisson-pool8.perf", 0x17bbe166942ee0c2ULL, 627, 0},
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

TEST(JournalStreamGolden, TreeToolFaultsAndRecoveryMatchRecordedDigest) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.nranks = 64;
  config.platform = sim::Platform::tianhe2();
  config.seed = 7;
  config.fault = faults::FaultType::kComputeHang;
  config.monitor_tree.fanout = 2;
  // psim's `--tool-faults loss=0.2,crash=rand@20,lead-crash=40`; monitor
  // -1 is a seed-chosen non-lead monitor.
  config.tool_faults.loss_probability = 0.2;
  config.tool_faults.monitor_crashes.push_back({-1, 20 * sim::kSecond});
  config.tool_faults.lead_crash_at = 40 * sim::kSecond;
  config.recovery = *recover::parse_recovery("ckpt:30");
  harness::RunResult result;
  const Artifacts artifacts = artifacts_of_run(config, &result);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.recovery.recovered);
  EXPECT_EQ(result.recovery.attempts_used, 2);
  EXPECT_EQ(result.recovery.checkpoints_taken, 17u);
  EXPECT_EQ(result.tree_hops, 186u);
  EXPECT_EQ(result.root_messages, 149u);
  EXPECT_TRUE(contains(artifacts.journal, "lead_failover"));
  EXPECT_TRUE(contains(artifacts.journal, "recovery"));
  expect_goldens("lu64-tree-faults-ckpt", artifacts);
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
  obs::perf::ProfileRegistry perf;
  config.telemetry = &journal;
  config.perf = &perf;
  const fleet::FleetResult result = fleet::run_fleet(config);
  int refused = 0;
  for (const auto& tenant : result.tenants) refused += !tenant.admitted;
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, 6);
  EXPECT_NE(out.str().find("\"pool_capacity\":8"), std::string::npos);
  expect_golden("fleet6-poisson-pool8", out.str());
  std::ostringstream perf_out;
  perf.write_json(perf_out, /*include_timers=*/false);
  expect_golden("fleet6-poisson-pool8.perf", perf_out.str());
}

}  // namespace
}  // namespace parastack
