// Golden-file property of the telemetry layer: with a fixed seed, a whole
// simulated run emits a byte-identical journal, metrics document, and
// chrome trace no matter how often it is repeated. This pins down both the
// simulator's determinism and the sinks' stable formatting (%.9g doubles,
// sorted metric keys) — the contract psim's --journal/--metrics-out users
// rely on for diffing runs.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

#include "minijson.hpp"

namespace parastack {
namespace {

harness::RunConfig small_lu(std::uint64_t seed) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

struct Capture {
  std::string journal;
  std::string metrics;
  std::string trace;
  harness::RunResult result;
};

Capture capture_run(std::uint64_t seed, faults::FaultType fault) {
  std::ostringstream journal_out;
  obs::JsonlJournal journal(journal_out);
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(registry);
  obs::ChromeTraceWriter trace;
  obs::MultiSink multi;
  multi.add(&journal);
  multi.add(&metrics);
  multi.add(&trace);

  auto config = small_lu(seed);
  config.fault = fault;
  config.telemetry = &multi;
  Capture capture;
  capture.result = harness::run_one(config);
  capture.journal = journal_out.str();
  std::ostringstream metrics_out;
  registry.write_json(metrics_out);
  capture.metrics = metrics_out.str();
  std::ostringstream trace_out;
  trace.write(trace_out);
  capture.trace = trace_out.str();
  return capture;
}

TEST(TelemetryDeterminism, CleanRunIsByteIdenticalAcrossReruns) {
  const auto a = capture_run(7, faults::FaultType::kNone);
  const auto b = capture_run(7, faults::FaultType::kNone);
  EXPECT_FALSE(a.journal.empty());
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(TelemetryDeterminism, FaultyRunIsByteIdenticalAcrossReruns) {
  const auto a = capture_run(11, faults::FaultType::kComputeHang);
  const auto b = capture_run(11, faults::FaultType::kComputeHang);
  EXPECT_TRUE(a.result.parastack_detected());
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(TelemetryDeterminism, DifferentSeedsDiverge) {
  const auto a = capture_run(7, faults::FaultType::kNone);
  const auto b = capture_run(8, faults::FaultType::kNone);
  EXPECT_NE(a.journal, b.journal);
}

TEST(TelemetryDeterminism, JournalLinesAndDocumentsAreValidJson) {
  const auto capture = capture_run(11, faults::FaultType::kComputeHang);
  std::istringstream in(capture.journal);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    ASSERT_TRUE(testjson::is_valid_json(line)) << line;
  }
  EXPECT_GT(lines, 10u);
  EXPECT_TRUE(testjson::is_valid_json(capture.metrics));
  EXPECT_TRUE(testjson::is_valid_json(capture.trace));
}

TEST(TelemetryDeterminism, JournalTellsTheDetectionStory) {
  const auto capture = capture_run(11, faults::FaultType::kComputeHang);
  EXPECT_NE(capture.journal.find("\"ev\":\"run_start\""), std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"sample\""), std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"monitor_sample\""),
            std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"fault\""), std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"streak\""), std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"sweep\""), std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"hang\""), std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"run_end\""), std::string::npos);
  // The journal ends with the run_end line.
  const auto last_line_start =
      capture.journal.rfind("\n{", capture.journal.size() - 2);
  EXPECT_NE(capture.journal.find("\"ev\":\"run_end\"", last_line_start),
            std::string::npos);
}

TEST(TelemetryDeterminism, MetricsAgreeWithTheRunResult) {
  const auto capture = capture_run(11, faults::FaultType::kComputeHang);
  std::ostringstream expected;
  expected << "\"detector.hangs\":" << capture.result.hangs().size();
  EXPECT_NE(capture.metrics.find(expected.str()), std::string::npos)
      << capture.metrics;
  std::ostringstream traces;
  traces << "\"trace.traces\":" << capture.result.traces;
  EXPECT_NE(capture.metrics.find(traces.str()), std::string::npos);
}

// --- Tool-fault vocabulary (robustness extension) --------------------------

Capture capture_tool_fault_run(std::uint64_t seed) {
  std::ostringstream journal_out;
  obs::JsonlJournal journal(journal_out);
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(registry);
  obs::MultiSink multi;
  multi.add(&journal);
  multi.add(&metrics);

  auto config = small_lu(seed);
  config.fault = faults::FaultType::kComputeHang;
  config.tool_faults.loss_probability = 0.3;
  config.tool_faults.monitor_crashes.push_back(
      {.monitor = -1, .at = 30 * sim::kSecond});
  // Before the hang verdict (~60 s at this seed) — sampling pauses during
  // verification sweeps, so a later crash would never be applied.
  config.tool_faults.lead_crash_at = 45 * sim::kSecond;
  config.telemetry = &multi;
  Capture capture;
  capture.result = harness::run_one(config);
  capture.journal = journal_out.str();
  std::ostringstream metrics_out;
  registry.write_json(metrics_out);
  capture.metrics = metrics_out.str();
  return capture;
}

TEST(TelemetryDeterminism, ToolFaultRunIsByteIdenticalAcrossReruns) {
  const auto a = capture_tool_fault_run(11);
  const auto b = capture_tool_fault_run(11);
  EXPECT_FALSE(a.journal.empty());
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(TelemetryDeterminism, ToolFaultJournalPinsTheNewVocabulary) {
  const auto capture = capture_tool_fault_run(11);
  EXPECT_NE(capture.journal.find("\"ev\":\"monitor_crash\""),
            std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"lead_failover\""),
            std::string::npos);
  EXPECT_NE(capture.journal.find("\"ev\":\"sample_timeout\""),
            std::string::npos);
  EXPECT_NE(capture.journal.find("\"coverage\""), std::string::npos);
  EXPECT_GT(capture.result.monitor_crashes, 0u);
  EXPECT_GT(capture.result.lead_failovers, 0u);
  // Every line is still valid JSON with the new fields in place.
  std::istringstream in(capture.journal);
  for (std::string line; std::getline(in, line);) {
    ASSERT_TRUE(testjson::is_valid_json(line)) << line;
  }
}

TEST(TelemetryDeterminism, FaultsOffJournalOmitsToolFaultVocabulary) {
  // Zero-cost-when-off: without a ToolFaultPlan, no tool-fault key may
  // appear anywhere in the journal or metrics — the formats must stay
  // byte-compatible with pre-fault-model golden files.
  const auto capture = capture_run(11, faults::FaultType::kComputeHang);
  for (const char* token :
       {"monitor_crash", "lead_failover", "sample_timeout", "degraded",
        "\"coverage\"", "\"missing\"", "\"retries\""}) {
    EXPECT_EQ(capture.journal.find(token), std::string::npos) << token;
    EXPECT_EQ(capture.metrics.find(token), std::string::npos) << token;
  }
}

TEST(TelemetryDeterminism, NoSinkMatchesAttachedSinkVerdicts) {
  // Telemetry must be observation-only: attaching sinks cannot change what
  // the detector decides.
  auto plain = small_lu(11);
  plain.fault = faults::FaultType::kComputeHang;
  const auto without = harness::run_one(plain);
  const auto with = capture_run(11, faults::FaultType::kComputeHang);
  ASSERT_EQ(without.hangs().size(), with.result.hangs().size());
  EXPECT_EQ(without.hangs().front().detected_at,
            with.result.hangs().front().detected_at);
  EXPECT_EQ(without.hangs().front().faulty_ranks,
            with.result.hangs().front().faulty_ranks);
  EXPECT_EQ(without.traces, with.result.traces);
}

}  // namespace
}  // namespace parastack
