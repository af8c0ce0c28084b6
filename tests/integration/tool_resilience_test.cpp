// Integration coverage for the tool-fault substrate: a lead-monitor crash
// must drive the deterministic failover and flip the detector into
// degraded mode (journaled), and a fully blinded tool must hand off to the
// fallback TimeoutDetector so an injected hang still ends the job. These
// exercise the whole stack — ToolFaultPlan -> MonitorNetwork ->
// ScroutSampler/SuspicionJudge -> HangDetector -> harness fallback wiring —
// through run_one(), asserting on the journal the way a user would.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "obs/journal.hpp"

namespace parastack {
namespace {

harness::RunConfig base_config(std::uint64_t seed) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();  // 24 cores/node -> 2 nodes
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

TEST(ToolResilience, LeadCrashDrivesFailoverAndDegradedMode) {
  // Node 0 hosts 24 of the 32 ranks; killing its monitor (the lead) leaves
  // coverage persistently below the 0.55 quorum, so the detector must
  // journal the failover and enter degraded mode — without reporting a
  // hang, because a blinded tool is not a hung application.
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  auto config = base_config(5);
  config.tool_faults.lead_crash_at = 40 * sim::kSecond;
  config.telemetry = &journal;
  const auto result = harness::run_one(config);

  EXPECT_EQ(result.monitor_crashes, 1u);
  EXPECT_EQ(result.lead_failovers, 1u);
  EXPECT_GT(result.degraded_entries, 0u);
  EXPECT_TRUE(result.hangs().empty());

  const std::string log = out.str();
  EXPECT_NE(log.find("\"ev\":\"monitor_crash\""), std::string::npos);
  EXPECT_NE(log.find("\"was_lead\":true"), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"lead_failover\""), std::string::npos);
  EXPECT_NE(log.find("\"from\":0"), std::string::npos);
  EXPECT_NE(log.find("\"to\":1"), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"degraded_mode\""), std::string::npos);
  EXPECT_NE(log.find("\"entered\":true"), std::string::npos);
}

TEST(ToolResilience, BlindedToolHandsOffToTheFallbackTimeout) {
  // Every monitor dead before the hang strikes: ParaStack is blind, the
  // degraded-mode transition starts the fallback TimeoutDetector, and the
  // fallback — which traces directly, immune to tool faults — ends the job.
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  auto config = base_config(23);
  config.fault = faults::FaultType::kComputeHang;
  config.fault_trigger_lo = 70 * sim::kSecond;
  config.fault_trigger_hi = 70 * sim::kSecond;
  config.tool_faults.monitor_crashes.push_back(
      {.monitor = 1, .at = 30 * sim::kSecond});
  config.tool_faults.lead_crash_at = 30 * sim::kSecond;
  config.degraded_fallback_timeout = true;
  config.telemetry = &journal;
  const auto result = harness::run_one(config);

  EXPECT_EQ(result.monitor_crashes, 2u);
  EXPECT_GT(result.degraded_entries, 0u);
  EXPECT_TRUE(result.hangs().empty());  // the blind primary saw nothing

  const harness::DetectorRunResult* fallback = nullptr;
  for (const auto& entry : result.detectors) {
    if (entry.label == "timeout-fallback") fallback = &entry;
  }
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->kind, core::DetectorKind::kTimeout);
  ASSERT_TRUE(fallback->detected());
  EXPECT_GE(fallback->detections.front().detected_at, 70 * sim::kSecond);

  // The fallback's kill wiring ended the job before walltime expiry.
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.end_time, result.walltime);
  EXPECT_EQ(result.end_time, fallback->detections.front().detected_at);

  const std::string log = out.str();
  EXPECT_NE(log.find("\"ev\":\"degraded_mode\""), std::string::npos);
  EXPECT_NE(log.find("\"entered\":true"), std::string::npos);
}

TEST(ToolResilience, FallbackStaysDormantWhileTheToolIsHealthy) {
  // With the flag set but no tool faults, the fallback must never start:
  // the run's outcome (and its RunResult roster) gains one idle entry at
  // most, and ParaStack still does the detecting.
  auto config = base_config(11);
  config.fault = faults::FaultType::kComputeHang;
  config.degraded_fallback_timeout = true;
  const auto result = harness::run_one(config);
  ASSERT_FALSE(result.hangs().empty());
  for (const auto& entry : result.detectors) {
    if (entry.label == "timeout-fallback") {
      EXPECT_TRUE(entry.detections.empty());
    }
  }
  EXPECT_EQ(result.degraded_entries, 0u);
}

std::string journal_of(harness::RunConfig config) {
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  (void)harness::run_one(config);
  return out.str();
}

/// The first line where two journals part ("" when they are equal), so a
/// failure prints one line pair instead of two whole journals.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream left(a);
  std::istringstream right(b);
  for (int line = 1;; ++line) {
    std::string l;
    std::string r;
    const bool more_l = static_cast<bool>(std::getline(left, l));
    const bool more_r = static_cast<bool>(std::getline(right, r));
    if (!more_l && !more_r) return "";
    if (more_l != more_r || l != r) {
      return "line " + std::to_string(line) + ":\n  " + l + "\n  " + r;
    }
  }
}

TEST(ToolResilience, PlanThatNeverFiresChangesNothing) {
  // A crash scheduled long after the run ends is an armed plan that never
  // fires: the star and the binary tree must write the plan-free run's
  // journal byte for byte, monitor lines included.
  for (const int fanout : {0, 2}) {
    SCOPED_TRACE(fanout);
    harness::RunConfig plain;
    plain.bench = workloads::Bench::kLU;
    plain.nranks = 64;
    plain.platform = sim::Platform::tianhe2();
    plain.seed = 7;
    plain.fault = faults::FaultType::kComputeHang;
    plain.monitor_tree.fanout = fanout;
    harness::RunConfig armed = plain;
    armed.tool_faults.monitor_crashes.push_back(
        {.monitor = 1, .at = 1'000'000 * sim::kSecond});
    armed.tool_faults.seed = 5;
    ASSERT_TRUE(armed.tool_faults.active());

    const std::string expected = journal_of(plain);
    ASSERT_NE(expected.find("\"ev\":\"hang\""), std::string::npos);
    EXPECT_EQ(first_difference(journal_of(armed), expected), "");
  }
}

}  // namespace
}  // namespace parastack
