#pragma once

// Shared helpers for the experiment-reproduction binaries. Each bench
// regenerates one table or figure from the paper. By default campaign sizes
// are scaled down so every binary finishes in seconds to a couple of
// minutes; set PARASTACK_BENCH_SCALE=full for paper-sized campaigns.
//
// Campaigns fan out across worker threads (`--jobs N` on any bench binary,
// or PARASTACK_BENCH_JOBS=N; default: all hardware threads). Any other
// option a bench does not read is an error (exit 2). Campaign
// results are byte-identical for any jobs value, so parallelism never
// changes a reproduced number.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "util/args.hpp"
#include "util/summary.hpp"

namespace parastack::bench {

inline bool full_scale() {
  const char* env = std::getenv("PARASTACK_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

/// Campaign size: `quick` by default, `full` under PARASTACK_BENCH_SCALE=full.
inline int runs(int quick, int full) { return full_scale() ? full : quick; }

/// The worker count parse_jobs read from --jobs or PARASTACK_BENCH_JOBS.
inline int& jobs_override() {
  static int value = -1;  // -1 = neither was given
  return value;
}

/// Parse the options every bench binary shares: `--jobs N` (or
/// `--jobs=N`), or else PARASTACK_BENCH_JOBS=N; 0 means one worker per
/// hardware thread. `also_known` names the options a bench reads itself
/// from the returned Args. An unknown option, a stray argument, or a
/// malformed or negative worker count exits 2 before anything runs, as in
/// psim and pscheck. Every bench binary calls this first thing in main().
inline util::Args parse_jobs(int argc, char** argv,
                             std::vector<std::string> also_known = {}) {
  const std::string_view path = argv[0];
  const std::string name(path.substr(path.rfind('/') + 1));
  util::Args args(argc, argv);
  also_known.push_back("jobs");
  bool bad = false;
  for (const auto& key : args.unknown_keys(also_known)) {
    std::fprintf(stderr, "%s: unknown option --%s\n", name.c_str(),
                 key.c_str());
    bad = true;
  }
  for (const auto& arg : args.positionals()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", name.c_str(),
                 arg.c_str());
    bad = true;
  }
  try {
    jobs_override() = args.get_whole<int>("jobs", -1, 0);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), error.what());
    bad = true;
  }
  if (const char* env = std::getenv("PARASTACK_BENCH_JOBS");
      env != nullptr && *env != '\0') {
    int env_jobs = -1;
    try {
      env_jobs = util::Args::parse_whole<int>(env);
    } catch (const std::invalid_argument&) {
    }
    if (env_jobs < 0) {
      std::fprintf(stderr,
                   "%s: bad PARASTACK_BENCH_JOBS value '%s' (expected a "
                   "whole number from 0)\n",
                   name.c_str(), env);
      bad = true;
    } else if (jobs_override() < 0) {
      jobs_override() = env_jobs;
    }
  }
  if (bad) std::exit(2);
  return args;
}

/// Worker threads for campaign fan-out: --jobs beats PARASTACK_BENCH_JOBS
/// beats auto (one per hardware thread).
inline int jobs() {
  if (jobs_override() >= 0) return harness::resolve_jobs(jobs_override());
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
