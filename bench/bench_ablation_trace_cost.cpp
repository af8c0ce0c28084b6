// Ablation (DESIGN.md #5): how the per-trace ptrace cost propagates into
// application slowdown, sweeping the cost and the sampling interval. This
// is the quantitative argument behind the paper's C = 10 / I >= 100 ms
// design choices.

#include "bench_common.hpp"

using namespace parastack;

int bench::ablation_trace_cost() {
  const int nruns = bench::runs(2, 5);
  const auto platform = sim::Platform::tianhe2();

  // Clean baseline.
  const auto clean = bench::measure_performance(workloads::Bench::kCG, 256,
                                                platform, nruns, 45000, 0.0);
  std::printf("CG(D) @256 Tianhe-2, clean mean: %.1fs\n\n",
              clean.metric.mean());
  std::printf("%-14s %-12s %10s %10s\n", "trace cost", "interval", "mean(s)",
              "overhead%");
  for (const double cost_ms : {0.5, 2.79, 10.0}) {
    for (const double interval_ms : {100.0, 400.0, 1600.0}) {
      std::vector<std::optional<double>> runtimes(
          static_cast<std::size_t>(nruns));
      harness::parallel_for(nruns, bench::jobs(), [&](int i) {
        harness::RunConfig config;
        config.bench = workloads::Bench::kCG;
        config.nranks = 256;
        config.platform = platform;
        config.seed = harness::derive_trial_seed(45100, i);
        config.parastack_config().initial_interval =
            sim::from_millis(interval_ms);
        config.parastack_config().enable_interval_tuning = false;
        config.trace_cost_override = sim::from_millis(cost_ms);
        const auto result = harness::run_one(config);
        if (result.completed) {
          runtimes[static_cast<std::size_t>(i)] =
              sim::to_seconds(*result.finish_time);
        }
      });
      util::Summary metric;
      for (const auto& runtime : runtimes) {
        if (runtime) metric.add(*runtime);
      }
      const double overhead =
          100.0 * (metric.mean() - clean.metric.mean()) / clean.metric.mean();
      std::printf("%-14.2f %-12.0f %10.1f %9.2f%%\n", cost_ms, interval_ms,
                  metric.mean(), overhead);
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nExpected shape: overhead ~ cost/interval for the monitored "
      "ranks, amplified through collectives; the paper's default "
      "(2.8ms cost, I>=400ms) keeps it around or below 1%%.\n");
  return 0;
}
