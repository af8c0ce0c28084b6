#pragma once

// Shared helpers for the experiment-reproduction binaries. Each bench
// regenerates one table or figure from the paper. By default campaign sizes
// are scaled down so every binary finishes in seconds to a couple of
// minutes; set PARASTACK_BENCH_SCALE=full for paper-sized campaigns.
//
// Campaigns fan out across worker threads (`--jobs N` on any bench binary,
// or PARASTACK_BENCH_JOBS=N; default: all hardware threads). Campaign
// results are byte-identical for any jobs value, so parallelism never
// changes a reproduced number.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "util/summary.hpp"

namespace parastack::bench {

inline bool full_scale() {
  const char* env = std::getenv("PARASTACK_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

/// Campaign size: `quick` by default, `full` under PARASTACK_BENCH_SCALE=full.
inline int runs(int quick, int full) { return full_scale() ? full : quick; }

/// Command-line override for the worker count (set by parse_jobs).
inline int& jobs_override() {
  static int value = -1;  // -1 = no --jobs flag seen
  return value;
}

/// Scan argv for `--jobs N` / `--jobs=N`. Every bench binary calls this
/// first thing in main() so the whole suite takes the flag uniformly.
inline void parse_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs_override() = std::atoi(argv[i + 1]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs_override() = std::atoi(argv[i] + 7);
    }
  }
}

/// Worker threads for campaign fan-out: --jobs beats PARASTACK_BENCH_JOBS
/// beats auto (one per hardware thread).
inline int jobs() {
  if (jobs_override() >= 0) return harness::resolve_jobs(jobs_override());
  if (const char* env = std::getenv("PARASTACK_BENCH_JOBS");
      env != nullptr && *env != '\0') {
    return harness::resolve_jobs(std::atoi(env));
  }
  return harness::default_jobs();
}

inline void header(const char* experiment, const char* paper_ref) {
  std::printf("=============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("mode: %s (set PARASTACK_BENCH_SCALE=full for paper-sized "
              "campaigns), %d worker thread%s\n",
              full_scale() ? "full" : "quick", jobs(),
              jobs() == 1 ? "" : "s");
  std::printf("=============================================================\n");
}

inline sim::Platform platform_by_name(const std::string& name) {
  if (name == "Tardis") return sim::Platform::tardis();
  if (name == "Tianhe-2") return sim::Platform::tianhe2();
  return sim::Platform::stampede();
}

/// Base erroneous-run configuration shared by the accuracy-style benches.
inline harness::RunConfig erroneous_config(workloads::Bench bench,
                                           const std::string& input,
                                           int nranks,
                                           const sim::Platform& platform) {
  harness::RunConfig config;
  config.bench = bench;
  config.input = input;
  config.nranks = nranks;
  config.platform = platform;
  config.fault = faults::FaultType::kComputeHang;
  return config;
}

/// One performance measurement series for the overhead experiments
/// (Table 4, Figures 7-8, Table 5): the per-run metric is wall-clock
/// seconds, or delivered GFLOPS for HPCG.
struct OverheadSeries {
  util::Summary metric;          ///< across runs
  std::vector<double> per_run;   ///< individual runs (Figs 7-8 plot these)
  bool is_gflops = false;
};

/// Run `nruns` clean jobs of `bench` at `nranks` on `platform`, either
/// without monitoring or with ParaStack at a FIXED interval (the overhead
/// study disables auto-tuning, §7.1-I: "Note I does not change in this
/// study"). Trials fan out across jobs() workers; the series is reduced in
/// trial order, so it is identical for any worker count.
inline OverheadSeries measure_performance(workloads::Bench bench, int nranks,
                                          const sim::Platform& platform,
                                          int nruns, std::uint64_t seed0,
                                          double fixed_interval_ms /*0=clean*/) {
  struct Trial {
    double value = 0.0;
    bool is_gflops = false;
  };
  std::vector<std::optional<Trial>> trials(
      static_cast<std::size_t>(nruns < 0 ? 0 : nruns));
  harness::parallel_for(nruns, jobs(), [&](int i) {
    harness::RunConfig config;
    config.bench = bench;
    config.nranks = nranks;
    config.platform = platform;
    config.seed = harness::derive_trial_seed(seed0, i);
    if (fixed_interval_ms > 0.0) {
      config.parastack_config().initial_interval =
          sim::from_millis(fixed_interval_ms);
      config.parastack_config().enable_interval_tuning = false;
    } else {
      config.detectors.clear();  // unmonitored baseline run
    }
    const auto result = harness::run_one(config);
    if (!result.completed) return;  // walltime expiry would skew the mean
    Trial trial;
    trial.value = sim::to_seconds(*result.finish_time);
    if (result.gflops > 0.0) {
      trial.value = result.gflops;
      trial.is_gflops = true;
    }
    trials[static_cast<std::size_t>(i)] = trial;
  });
  OverheadSeries series;
  for (const auto& trial : trials) {
    if (!trial) continue;
    series.metric.add(trial->value);
    series.per_run.push_back(trial->value);
    if (trial->is_gflops) series.is_gflops = true;
  }
  return series;
}

}  // namespace parastack::bench
