#pragma once

// Shared helpers for the paper's experiments, which `psbench NAME` runs
// (bench/psbench.cpp names them). Each experiment regenerates one or more
// tables or figures from the paper. By default campaign sizes are scaled
// down so every experiment finishes in seconds to a couple of minutes;
// PARASTACK_BENCH_SCALE=full runs paper-sized campaigns.
//
// Campaigns fan out across worker threads (`psbench NAME --jobs N`;
// default: all hardware threads). Campaign results are byte-identical for
// any jobs value, so parallelism never changes a reproduced number.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "util/summary.hpp"

namespace parastack::bench {

/// The two settable values, fixed by psbench's main before an experiment
/// runs.
struct Settings {
  bool full_scale = false;  ///< PARASTACK_BENCH_SCALE=full
  int jobs = 1;             ///< worker threads for campaign fan-out
};
inline Settings settings;

inline bool full_scale() { return settings.full_scale; }

/// Campaign size: `quick` by default, `full` under PARASTACK_BENCH_SCALE=full.
inline int runs(int quick, int full) { return full_scale() ? full : quick; }

/// Worker threads for campaign fan-out.
inline int jobs() { return settings.jobs; }

/// Base erroneous-run configuration shared by the accuracy-style experiments.
inline harness::RunConfig erroneous_config(workloads::Bench bench,
                                           const std::string& input, int nranks,
                                           const sim::Platform& platform) {
  harness::RunConfig config;
  config.bench = bench;
  config.input = input;
  config.nranks = nranks;
  config.platform = platform;
  config.fault = faults::FaultType::kComputeHang;
  return config;
}

/// One performance measurement series for the overhead experiment
/// (Tables 4-5, Figures 7-8): the per-run metric is wall-clock seconds, or
/// delivered GFLOPS for HPCG.
struct OverheadSeries {
  util::Summary metric;         ///< across runs
  std::vector<double> per_run;  ///< individual runs (Figs 7-8 plot these)
  bool is_gflops = false;
};

/// Run `nruns` clean jobs of `bench` at `nranks` on `platform`, either
/// without monitoring or with ParaStack at a FIXED interval (the overhead
/// study disables auto-tuning, §7.1-I: "Note I does not change in this
/// study"). Trials fan out across jobs() workers; the series is reduced in
/// trial order, so it is identical for any worker count.
inline OverheadSeries measure_performance(
    workloads::Bench bench, int nranks, const sim::Platform& platform,
    int nruns, std::uint64_t seed0, double fixed_interval_ms /*0=clean*/) {
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

// The experiments, one per file of this directory. Each prints its rows
// after psbench's header and returns the process exit code.
int table1_timeout();
int fig2_sout_healthy();
int fig3_sout_faulty();
int fig4_model();
int fig5_sample_size();
int table3_trace_overhead();
int overhead();
int accuracy();
int fig10_time_savings();
int table9_generality();
int sec7_false_positives();
int ablation_model_freeze();
int ablation_single_set();
int ablation_trace_cost();
int comparison_io_watchdog();
int limitation_load_imbalance();
int scalability_monitors();
int tool_resilience();
int recovery_policies();
int fleet_service();

}  // namespace parastack::bench
