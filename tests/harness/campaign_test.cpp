#include "harness/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/journal.hpp"

namespace parastack::harness {
namespace {

CampaignConfig small_campaign(int runs) {
  CampaignConfig config;
  config.base.bench = workloads::Bench::kLU;
  config.base.input = "C";
  config.base.nranks = 32;
  config.base.platform = sim::Platform::tianhe2();
  config.base.background_slowdowns = false;
  config.runs = runs;
  config.seed0 = 9000;
  return config;
}

TEST(Campaign, ErroneousRunsDetectedAccurately) {
  auto config = small_campaign(4);
  config.base.fault = faults::FaultType::kComputeHang;
  const auto result = run_erroneous_campaign(config);
  EXPECT_EQ(result.runs, 4);
  EXPECT_EQ(result.detected, 4);
  EXPECT_EQ(result.false_positives, 0);
  EXPECT_EQ(result.missed, 0);
  EXPECT_DOUBLE_EQ(result.accuracy(), 1.0);
  EXPECT_EQ(result.computation_verdicts, 4);
  EXPECT_DOUBLE_EQ(result.acf(), 1.0);
  EXPECT_DOUBLE_EQ(result.prf(), 1.0);
  EXPECT_EQ(result.delays.size(), 4u);
  EXPECT_GT(result.delay_seconds.mean(), 0.0);
  EXPECT_LT(result.delay_seconds.mean(), 60.0);
}

TEST(Campaign, CommDeadlockClassifiedAsCommunication) {
  auto config = small_campaign(3);
  config.base.fault = faults::FaultType::kCommDeadlock;
  const auto result = run_erroneous_campaign(config);
  EXPECT_EQ(result.detected, 3);
  EXPECT_EQ(result.communication_verdicts, 3);
  EXPECT_EQ(result.computation_verdicts, 0);
  // No faulty process is (correctly) reported for communication errors.
  EXPECT_DOUBLE_EQ(result.acf(), 0.0);
}

TEST(Campaign, CleanRunsProduceNoFalsePositives) {
  const auto result = run_clean_campaign(small_campaign(3));
  EXPECT_EQ(result.runs, 3);
  EXPECT_EQ(result.false_positives, 0);
  EXPECT_EQ(result.runtime_seconds.count(), 3u);
  EXPECT_GT(result.total_hours, 0.0);
}

TEST(Campaign, SeedsVaryAcrossRuns) {
  auto config = small_campaign(3);
  config.base.fault = faults::FaultType::kComputeHang;
  const auto result = run_erroneous_campaign(config);
  ASSERT_EQ(result.results.size(), 3u);
  // Different seeds -> different victims or trigger instants.
  const bool all_same =
      result.results[0].fault.victim == result.results[1].fault.victim &&
      result.results[1].fault.victim == result.results[2].fault.victim &&
      result.results[0].fault.planned_trigger ==
          result.results[1].fault.planned_trigger;
  EXPECT_FALSE(all_same);
}

TEST(Campaign, TimeoutBaselineCampaign) {
  auto config = small_campaign(3);
  config.base.fault = faults::FaultType::kComputeHang;
  config.base.detectors = {DetectorSpec::make_timeout()};
  config.base.timeout_config().interval = sim::from_millis(800);
  config.base.timeout_config().k = 10;
  const auto result = run_timeout_campaign(config);
  EXPECT_EQ(result.runs, 3);
  EXPECT_EQ(result.detected + result.false_positives + result.missed, 3);
}

TEST(Campaign, ZeroRunCampaignIsEmptyNotFatal) {
  auto config = small_campaign(0);
  config.base.fault = faults::FaultType::kComputeHang;
  const auto result = run_erroneous_campaign(config);
  EXPECT_EQ(result.runs, 0);
  EXPECT_EQ(result.detected, 0);
  EXPECT_EQ(result.false_positives, 0);
  EXPECT_EQ(result.missed, 0);
  EXPECT_DOUBLE_EQ(result.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(result.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(result.acf(), 0.0);
  EXPECT_DOUBLE_EQ(result.prf(), 0.0);
  EXPECT_TRUE(result.results.empty());

  const auto clean = run_clean_campaign(small_campaign(0));
  EXPECT_EQ(clean.runs, 0);
}

TEST(Campaign, BucketInvariantHolds) {
  // detected + false_positives + missed == runs + fp_then_detected: the
  // only way a run lands in two buckets is the FP-then-genuine overlap.
  auto config = small_campaign(6);
  config.base.fault = faults::FaultType::kComputeHang;
  const auto result = run_erroneous_campaign(config);
  EXPECT_EQ(result.detected + result.false_positives + result.missed,
            result.runs + result.fp_then_detected);
  // Kill-on-detection (the default) ends the job at the first report, so
  // the overlap bucket must be empty there.
  EXPECT_EQ(result.fp_then_detected, 0);
}

// --- accounting edge cases on synthetic results -------------------------

RunResult synthetic_faulted_run() {
  RunResult result;
  result.fault.type = faults::FaultType::kComputeHang;
  result.fault.victim = 7;
  result.fault.planned_trigger = 90 * sim::kSecond;
  result.fault.activated_at = 100 * sim::kSecond;
  return result;
}

/// Appends an empty entry for one detector kind, as the runner does for
/// each attached detector.
DetectorRunResult& add_detector(RunResult& result, core::DetectorKind kind) {
  DetectorRunResult& entry = result.detectors.emplace_back();
  entry.kind = kind;
  return entry;
}

core::HangReport hang_at(sim::Time t, simmpi::Rank rank) {
  core::HangReport report;
  report.detected_at = t;
  report.kind = core::HangKind::kComputationError;
  report.faulty_ranks = {rank};
  return report;
}

TEST(Accounting, PreFaultFpThenGenuineDetectionCountsBoth) {
  // The bug this guards against: stopping at hangs.front() made a run
  // whose pre-fault false positive preceded the real detection count as
  // FP-only, deflating accuracy and the faulty-id stats.
  RunResult result = synthetic_faulted_run();
  auto& parastack = add_detector(result, core::DetectorKind::kParastack);
  parastack.hang_reports.push_back(hang_at(50 * sim::kSecond, 3));   // FP
  parastack.hang_reports.push_back(hang_at(130 * sim::kSecond, 7));  // real

  ErroneousCampaignResult out;
  account_erroneous_run(out, std::move(result));
  EXPECT_EQ(out.runs, 1);
  EXPECT_EQ(out.false_positives, 1);
  EXPECT_EQ(out.detected, 1);
  EXPECT_EQ(out.missed, 0);
  EXPECT_EQ(out.fp_then_detected, 1);
  // Delay and faulty-id stats must come from the genuine report, not the
  // pre-fault one.
  ASSERT_EQ(out.delays.size(), 1u);
  EXPECT_DOUBLE_EQ(out.delays[0], 30.0);
  EXPECT_EQ(out.victim_identified, 1);
  EXPECT_DOUBLE_EQ(out.precision_sum, 1.0);
}

TEST(Accounting, PreFaultFpAloneIsNotADetection) {
  RunResult result = synthetic_faulted_run();
  add_detector(result, core::DetectorKind::kParastack)
      .hang_reports.push_back(hang_at(50 * sim::kSecond, 3));

  ErroneousCampaignResult out;
  account_erroneous_run(out, std::move(result));
  EXPECT_EQ(out.false_positives, 1);
  EXPECT_EQ(out.detected, 0);
  EXPECT_EQ(out.missed, 0);
  EXPECT_EQ(out.fp_then_detected, 0);
  EXPECT_TRUE(out.delays.empty());
}

TEST(Accounting, SilentRunIsMissed) {
  ErroneousCampaignResult out;
  account_erroneous_run(out, synthetic_faulted_run());
  EXPECT_EQ(out.missed, 1);
  EXPECT_EQ(out.detected, 0);
  EXPECT_EQ(out.false_positives, 0);
}

TEST(Accounting, TimeoutMirrorsTheSameSemantics) {
  RunResult result = synthetic_faulted_run();
  auto& timeout = add_detector(result, core::DetectorKind::kTimeout);
  timeout.detections.push_back(
      {60 * sim::kSecond, core::DetectorKind::kTimeout});  // pre-fault FP
  timeout.detections.push_back(
      {150 * sim::kSecond, core::DetectorKind::kTimeout});  // genuine

  TimeoutCampaignResult out;
  account_timeout_run(out, result);
  EXPECT_EQ(out.runs, 1);
  EXPECT_EQ(out.false_positives, 1);
  EXPECT_EQ(out.detected, 1);
  EXPECT_EQ(out.missed, 0);
  EXPECT_EQ(out.fp_then_detected, 1);
  EXPECT_DOUBLE_EQ(out.delay_seconds.mean(), 50.0);
  EXPECT_EQ(out.detected + out.false_positives + out.missed,
            out.runs + out.fp_then_detected);
}

// --- parallel execution determinism -------------------------------------

TEST(Campaign, ResultsAreIdenticalForAnyJobsCount) {
  auto config = small_campaign(6);
  config.base.fault = faults::FaultType::kComputeHang;

  config.jobs = 1;
  const auto serial = run_erroneous_campaign(config);
  config.jobs = 8;
  const auto parallel = run_erroneous_campaign(config);

  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.detected, parallel.detected);
  EXPECT_EQ(serial.false_positives, parallel.false_positives);
  EXPECT_EQ(serial.missed, parallel.missed);
  EXPECT_EQ(serial.fp_then_detected, parallel.fp_then_detected);
  EXPECT_EQ(serial.computation_verdicts, parallel.computation_verdicts);
  EXPECT_EQ(serial.victim_identified, parallel.victim_identified);
  EXPECT_DOUBLE_EQ(serial.precision_sum, parallel.precision_sum);
  // Bit-exact, not approximately equal: the reduction runs serially in
  // trial order on both paths.
  EXPECT_EQ(serial.delay_seconds.mean(), parallel.delay_seconds.mean());
  EXPECT_EQ(serial.delay_seconds.stddev(), parallel.delay_seconds.stddev());
  ASSERT_EQ(serial.delays.size(), parallel.delays.size());
  for (std::size_t i = 0; i < serial.delays.size(); ++i) {
    EXPECT_EQ(serial.delays[i], parallel.delays[i]) << "i=" << i;
  }
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].fault.victim, parallel.results[i].fault.victim);
    EXPECT_EQ(serial.results[i].fault.activated_at,
              parallel.results[i].fault.activated_at);
    EXPECT_EQ(serial.results[i].end_time, parallel.results[i].end_time);
  }
}

TEST(Campaign, JournalIsByteIdenticalForAnyJobsCount) {
  const auto journal_with_jobs = [](int jobs) {
    std::ostringstream out;
    obs::JsonlJournal journal(out);
    auto config = small_campaign(4);
    config.base.fault = faults::FaultType::kComputeHang;
    config.base.telemetry = &journal;
    config.jobs = jobs;
    (void)run_erroneous_campaign(config);
    return out.str();
  };
  const std::string serial = journal_with_jobs(1);
  const std::string parallel = journal_with_jobs(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Campaign, MultiDetectorJournalIsByteIdenticalForAnyJobsCount) {
  // The per-detector telemetry labels ("parastack", "timeout",
  // "io-watchdog") must survive the parallel record/replay path unchanged:
  // a bank of three detectors per trial still merges to one deterministic
  // journal.
  const auto journal_with_jobs = [](int jobs) {
    std::ostringstream out;
    obs::JsonlJournal journal(out);
    auto config = small_campaign(4);
    config.base.fault = faults::FaultType::kComputeHang;
    config.base.detectors = {DetectorSpec::make_parastack(),
                             DetectorSpec::make_timeout(),
                             DetectorSpec::make_io_watchdog()};
    config.base.telemetry = &journal;
    config.jobs = jobs;
    (void)run_erroneous_campaign(config);
    return out.str();
  };
  const std::string serial = journal_with_jobs(1);
  const std::string parallel = journal_with_jobs(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"det\":\"parastack\""), std::string::npos);
  EXPECT_NE(serial.find("\"det\":\"timeout\""), std::string::npos);
}

TEST(Campaign, ToolFaultJournalIsByteIdenticalForAnyJobsCount) {
  // Determinism extends to the lossy message model: the tool-fault RNG is
  // derived from each trial's positional seed, never from scheduling.
  const auto journal_with_jobs = [](int jobs) {
    std::ostringstream out;
    obs::JsonlJournal journal(out);
    auto config = small_campaign(4);
    config.base.fault = faults::FaultType::kComputeHang;
    config.base.tool_faults.loss_probability = 0.25;
    config.base.tool_faults.monitor_crashes.push_back(
        {.monitor = -1, .at = 30 * sim::kSecond});
    config.base.telemetry = &journal;
    config.jobs = jobs;
    const auto result = run_erroneous_campaign(config);
    EXPECT_EQ(result.monitor_crashes, 4u);  // one per trial
    EXPECT_GT(result.sample_retries, 0u);
    return out.str();
  };
  const std::string serial = journal_with_jobs(1);
  const std::string parallel = journal_with_jobs(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"ev\":\"monitor_crash\""), std::string::npos);
  EXPECT_NE(serial.find("\"ev\":\"sample_timeout\""), std::string::npos);
}

TEST(Campaign, AutoJobsMatchesSerial) {
  auto config = small_campaign(3);
  config.base.fault = faults::FaultType::kCommDeadlock;
  config.jobs = 1;
  const auto serial = run_erroneous_campaign(config);
  config.jobs = 0;  // auto: one worker per hardware thread
  const auto auto_jobs = run_erroneous_campaign(config);
  EXPECT_EQ(serial.detected, auto_jobs.detected);
  EXPECT_EQ(serial.delay_seconds.mean(), auto_jobs.delay_seconds.mean());
}

TEST(CampaignDeath, Validation) {
  auto config = small_campaign(1);
  EXPECT_DEATH((void)run_erroneous_campaign(config), "fault type");
  config.base.fault = faults::FaultType::kComputeHang;
  EXPECT_DEATH((void)run_clean_campaign(config), "must not inject");
  config.base.fault = faults::FaultType::kNone;
  EXPECT_DEATH((void)run_timeout_campaign(config), "baseline");
}

}  // namespace
}  // namespace parastack::harness
