// Comparison against IO-Watchdog (paper §1, reference [2]): the incumbent
// watches write activity and times out (1-hour default). For the same
// erroneous HPL runs, compare detection delay and wasted Service Units
// between ParaStack and IO-Watchdog at several timeout guesses.
//
// A thin campaign driver: every variant is the same faulty-run
// configuration with a different DetectorSpec list handed to run_one, so
// the sim loop, fault plan, and accounting live in the shared harness.

#include "bench_common.hpp"

using namespace parastack;

namespace {

struct Row {
  int detected = 0;
  int false_alarms = 0;
  util::Summary delay_s;
};

harness::RunConfig faulty_hpl(std::uint64_t seed) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kHPL;
  config.input = "80000";
  config.nranks = 256;
  config.platform = sim::Platform::tardis();
  config.seed = seed;
  config.fault = faults::FaultType::kComputeHang;
  // The comparison pins the hang to a fixed wall-clock window instead of a
  // fraction of the estimated runtime.
  config.fault_trigger_lo = 60 * sim::kSecond;
  config.fault_trigger_hi = 200 * sim::kSecond;
  config.walltime_override = 40 * sim::kMinute;
  config.use_monitor_network = false;
  return config;
}

/// Run the same seeded faulty jobs under a chosen watchdog timeout
/// (0 = use ParaStack instead).
Row evaluate(sim::Time watchdog_timeout, int nruns) {
  std::vector<harness::RunResult> results(
      static_cast<std::size_t>(nruns < 0 ? 0 : nruns));
  harness::parallel_for(nruns, bench::jobs(), [&](int i) {
    auto config = faulty_hpl(52000 + static_cast<std::uint64_t>(i) * 61);
    if (watchdog_timeout != 0) {
      core::IoWatchdog::Config watchdog;
      watchdog.timeout = watchdog_timeout;
      config.detectors = {harness::DetectorSpec::make_io_watchdog(watchdog)};
    }
    results[static_cast<std::size_t>(i)] = harness::run_one(config);
  });
  Row row;
  for (const auto& result : results) {
    const auto& detections = result.detectors.front().detections;
    if (detections.empty()) continue;
    const sim::Time detected_at = detections.front().detected_at;
    if (!result.fault.activated() || detected_at < result.fault.activated_at) {
      ++row.false_alarms;
    } else {
      ++row.detected;
      row.delay_s.add(sim::to_seconds(detected_at - result.fault.activated_at));
    }
  }
  return row;
}

}  // namespace

int bench::comparison_io_watchdog() {
  const int nruns = bench::runs(5, 15);
  struct Variant {
    const char* label;
    sim::Time timeout;
  };
  const Variant variants[] = {
      {"ParaStack (alpha=0.1%)", 0},
      {"IO-Watchdog, 2-min timeout", 2 * sim::kMinute},
      {"IO-Watchdog, 10-min timeout", 10 * sim::kMinute},
      {"IO-Watchdog, 1-hour default", sim::kHour},
  };
  std::printf("%-30s %9s %7s %12s %16s\n", "detector", "detected", "FP",
              "delay(s)", "SU wasted/run*");
  for (const auto& variant : variants) {
    const Row row = evaluate(variant.timeout, nruns);
    // SUs burned after the hang began, on 8 Tardis nodes x 32 cores.
    const double su_per_second = 8.0 * 32.0 / 3600.0;
    std::printf("%-30s %6d/%-2d %7d %12.1f %16.1f\n", variant.label,
                row.detected, nruns, row.false_alarms, row.delay_s.mean(),
                row.delay_s.mean() * su_per_second);
    std::fflush(stdout);
  }
  std::printf("\n* Service Units burned between hang onset and detection.\n");
  std::printf(
      "Expected shape: ParaStack detects in seconds with no timeout "
      "to guess; IO-Watchdog either wastes its whole timeout per "
      "hang (large settings) or false-alarms on healthy quiet "
      "phases (small settings).\n");
  return 0;
}
