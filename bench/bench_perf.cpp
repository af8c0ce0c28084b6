// bench_perf — the canonical self-measurement binary behind the repo's
// perf trajectory (ISSUE 6; BENCH_7 marks the ISSUE 7 engine overhaul,
// BENCH_8 the ISSUE 8 aggregation-tree refactor with its tree scenario,
// BENCH_9 the ISSUE 9 recovery subsystem with its recovery scenario,
// BENCH_10 the ISSUE 10 fleet layer with its fleet scenario).
// Where every other bench reproduces a paper
// table, this one measures the simulator itself: campaign throughput
// (trials/sec), DES hot-loop rate (sim-events/sec), the cost of leaving
// the perf counters attached, and the detection-latency span percentiles.
// Results go to BENCH_10.json; `tools/psperf` compares trajectory files and
// turns regressions into CI failures.
//
//   bench_perf [--quick] [--out FILE] [--jobs N] [--metrics-out FILE]
//
// Wall-clock numbers (trials/sec, events/sec, overhead) vary with the host
// and are compared leniently; the embedded perf counters are pure functions
// of the seeds and must reproduce exactly on any machine.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/summary.hpp"

using namespace parastack;

namespace {

struct ScenarioSpec {
  const char* name;
  int nranks;
  std::uint64_t seed0;
  int runs_quick;  ///< erroneous runs per timed repeat
  int runs_full;
  int tree_fanout = 0;  ///< > 0: route aggregation through a k-ary tree
  const char* recovery = nullptr;  ///< non-null: arm a recovery policy
  bool fleet = false;  ///< run the multi-tenant fleet instead of a campaign
                       ///< (runs = tenant count)
};

constexpr ScenarioSpec kScenarios[] = {
    {"small", 64, 101, 8, 24},
    {"medium", 256, 201, 4, 12},
    {"huge", 1024, 301, 2, 6},
    // The tree-aggregation path: same campaign shape as `medium` (256 ranks
    // on Tardis = 8 monitors) but gathered over a binary tree, so the
    // carrier walk, per-level gathers, and tree perf counters are on the
    // timed path and their snapshots in the trajectory.
    {"tree", 256, 401, 4, 12, 2},
    // The detect->recover loop: every kill rolls back to a checkpoint and
    // the multi-attempt driver, snapshot replay, and recover.* counters
    // are on the timed path.
    {"recovery", 64, 501, 6, 18, 0, "ckpt:30"},
    // The multi-tenant fleet: `runs` tenants arrive over Poisson gaps and
    // contend at admission, so the fleet driver and fleet.* counters are
    // on the timed path and their snapshots in the trajectory.
    {"fleet", 64, 601, 8, 24, 0, nullptr, true},
};

struct Record {
  std::string scenario;
  std::string metric;
  double value = 0.0;
  double stddev = 0.0;
  std::map<std::string, std::uint64_t> counters;  ///< empty = omitted
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

harness::CampaignConfig make_campaign(const ScenarioSpec& spec, int runs) {
  harness::CampaignConfig campaign;
  campaign.base =
      bench::erroneous_config(workloads::Bench::kLU, "", spec.nranks,
                              sim::Platform::tardis());
  campaign.runs = runs;
  campaign.seed0 = spec.seed0;
  campaign.jobs = bench::jobs();
  campaign.base.monitor_tree.fanout = spec.tree_fanout;
  if (spec.recovery != nullptr) {
    campaign.base.recovery = *recover::parse_recovery(spec.recovery);
  }
  return campaign;
}

fleet::FleetConfig make_fleet(const ScenarioSpec& spec, int tenants) {
  fleet::FleetConfig config;
  config.base =
      bench::erroneous_config(workloads::Bench::kLU, "", spec.nranks,
                              sim::Platform::tardis());
  config.base.seed = spec.seed0;
  config.base.perf = nullptr;  // run_fleet attaches its own registry
  config.arrivals.jobs = tenants;
  config.arrivals.mean_interarrival = 5 * sim::kSecond;
  config.jobs = bench::jobs();
  return config;
}

/// One timed repeat: the erroneous campaign — or, for the fleet scenario,
/// the multi-tenant fleet — under `perf` (null = counters detached).
/// Returns elapsed wall seconds.
double timed_repeat(const ScenarioSpec& spec, int runs,
                    obs::perf::ProfileRegistry* perf) {
  if (spec.fleet) {
    fleet::FleetConfig config = make_fleet(spec, runs);
    config.perf = perf;
    const auto t0 = std::chrono::steady_clock::now();
    (void)fleet::run_fleet(config);
    return seconds_since(t0);
  }
  harness::CampaignConfig campaign = make_campaign(spec, runs);
  campaign.base.perf = perf;
  campaign.base.telemetry = nullptr;  // pure throughput: no sinks
  const auto t0 = std::chrono::steady_clock::now();
  (void)harness::run_erroneous_campaign(campaign);
  return seconds_since(t0);
}

void write_bench_json(std::ostream& out, const std::vector<Record>& records,
                      bool quick) {
  out << "{\"bench\":\"bench_perf\",\"issue\":10,\"mode\":"
      << (quick ? "\"quick\"" : "\"full\"") << ",\"records\":[";
  std::string doc;
  bool first_record = true;
  for (const auto& record : records) {
    doc += first_record ? "\n  " : ",\n  ";
    first_record = false;
    obs::JsonObject object(doc);
    object.field("scenario", record.scenario)
        .field("metric", record.metric)
        .field("value", record.value)
        .field("stddev", record.stddev);
    if (!record.counters.empty()) {
      object.key("counters");
      obs::JsonObject counters(doc);
      for (const auto& [name, value] : record.counters) {
        counters.field(name, value);
      }
    }
  }
  doc += "\n]}\n";
  out << doc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_jobs(argc, argv);
  bool quick = !bench::full_scale();
  std::string out_path = "BENCH_10.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  const int repeats = quick ? 3 : 5;

  bench::header("bench_perf: simulator self-measurement",
                "tooling (no paper table): the BENCH_10.json perf trajectory");

  std::vector<Record> records;
  for (const auto& spec : kScenarios) {
    const int runs = quick ? spec.runs_quick : spec.runs_full;

    // Timed repeats, counters attached. Each repeat uses a fresh registry
    // over the same seeds, so every repeat's counter snapshot must be
    // byte-identical — the determinism contract, re-checked here for free.
    util::Summary trials_per_sec;
    util::Summary events_per_sec;
    std::map<std::string, std::uint64_t> counters;
    for (int r = 0; r < repeats; ++r) {
      obs::perf::ProfileRegistry registry;
      const double elapsed = timed_repeat(spec, runs, &registry);
      auto snapshot = registry.counter_snapshot();
      trials_per_sec.add(runs / elapsed);
      events_per_sec.add(
          static_cast<double>(snapshot["sim.events_fired"]) / elapsed);
      if (r == 0) {
        counters = std::move(snapshot);
      } else if (snapshot != counters) {
        std::fprintf(stderr,
                     "bench_perf: counter snapshot diverged across repeats "
                     "of scenario %s\n",
                     spec.name);
        return 1;
      }
    }

    // Timed repeats with the counters detached: the null-registry path the
    // acceptance criterion holds to "no measurable throughput loss".
    util::Summary detached_per_sec;
    for (int r = 0; r < repeats; ++r) {
      detached_per_sec.add(runs / timed_repeat(spec, runs, nullptr));
    }
    const double overhead_pct =
        trials_per_sec.mean() > 0.0
            ? (detached_per_sec.mean() / trials_per_sec.mean() - 1.0) * 100.0
            : 0.0;

    // One untimed instrumented campaign to fold the detection-latency
    // spans into digests (campaign telemetry replays in trial order, so
    // the percentiles are jobs-independent). Keeps the process-wide
    // bench::perf_registry() from erroneous_config, so --metrics-out sees
    // real counters too.
    obs::MetricsRegistry span_registry;
    obs::MetricsSink span_sink(span_registry);
    if (spec.fleet) {
      fleet::FleetConfig config = make_fleet(spec, runs);
      config.perf = &bench::perf_registry();
      config.telemetry = &span_sink;
      (void)fleet::run_fleet(config);
    } else {
      harness::CampaignConfig campaign = make_campaign(spec, runs);
      campaign.base.telemetry = &span_sink;
      (void)harness::run_erroneous_campaign(campaign);
    }

    Record throughput{spec.name, "trials_per_sec", trials_per_sec.mean(),
                      trials_per_sec.stddev(), counters};
    records.push_back(std::move(throughput));
    records.push_back({spec.name, "sim_events_per_sec", events_per_sec.mean(),
                       events_per_sec.stddev(), {}});
    records.push_back({spec.name, "trials_per_sec_noperf",
                       detached_per_sec.mean(), detached_per_sec.stddev(), {}});
    records.push_back({spec.name, "perf_overhead_pct", overhead_pct, 0.0, {}});
    const obs::Digest& spans = span_registry.digest("span.fault-to-kill_ms");
    if (!spans.empty()) {
      for (const double q : {0.50, 0.95, 0.99}) {
        char metric[48];
        std::snprintf(metric, sizeof metric, "span_fault_to_kill_p%02.0f_ms",
                      q * 100.0);
        records.push_back({spec.name, metric,
                           util::quantile(spans.values(), q), 0.0, {}});
      }
    }

    std::printf("%-7s %5d ranks x %2d runs: %7.2f trials/s (+/-%.2f), "
                "%8.0f events/s, detached %7.2f trials/s (%+.1f%%)",
                spec.name, spec.nranks, runs, trials_per_sec.mean(),
                trials_per_sec.stddev(), events_per_sec.mean(),
                detached_per_sec.mean(), overhead_pct);
    if (!spans.empty()) {
      std::printf(", fault->kill p50 %.0fms",
                  util::quantile(spans.values(), 0.50));
    }
    std::printf("\n");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
    return 1;
  }
  write_bench_json(out, records, quick);
  std::printf("wrote %zu records to %s\n", records.size(), out_path.c_str());
  return 0;
}
