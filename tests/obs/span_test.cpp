// Detection-latency span telemetry: golden output in the journal and the
// Chrome trace, digest folding in the metrics registry, and the end-to-end
// guarantee that a detected hang emits the full span breakdown.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace parastack::obs {
namespace {

DetectionSpanEvent span_event() {
  DetectionSpanEvent e;
  e.time = 5000;
  e.detector = "parastack";
  e.span = "fault-to-kill";
  e.begin = 1000;
  e.end = 4500;
  e.run_index = 2;
  return e;
}

TEST(DetectionSpan, JournalLineIsGolden) {
  std::ostringstream out;
  JsonlJournal journal(out);
  journal.on_event(span_event());
  EXPECT_EQ(out.str(),
            "{\"ev\":\"det_span\",\"det\":\"parastack\",\"t_ns\":5000,"
            "\"span\":\"fault-to-kill\",\"begin_ns\":1000,\"end_ns\":4500,"
            "\"run\":2}\n");
}

TEST(DetectionSpan, ChromeTraceEmitsCompleteEvent) {
  ChromeTraceWriter trace;
  trace.on_event(span_event());
  std::ostringstream out;
  trace.write(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"cat\":\"detection-latency\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"fault-to-kill\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
}

TEST(DetectionSpan, MetricsSinkFoldsSpansIntoDigests) {
  MetricsRegistry registry;
  MetricsSink sink(registry);
  DetectionSpanEvent e = span_event();
  e.begin = 0;
  e.end = 2 * sim::kSecond;  // 2000 ms
  sink.on_event(e);
  const Digest& digest = registry.digest("span.fault-to-kill_ms");
  ASSERT_EQ(digest.count(), 1u);
  EXPECT_DOUBLE_EQ(digest.values().front(), 2000.0);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_NE(out.str().find("\"span.fault-to-kill_ms\""), std::string::npos);
}

TEST(DetectionSpan, DetectedHangEmitsTheFullBreakdown) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();
  config.seed = 3;  // seed with a reliably detected compute hang
  config.background_slowdowns = false;
  config.fault = faults::FaultType::kComputeHang;
  std::ostringstream bytes;
  JsonlJournal journal(bytes);
  config.telemetry = &journal;
  const auto result = harness::run_one(config);
  ASSERT_TRUE(result.parastack_detected());
  const core::HangReport& hang = result.hangs().front();
  // The report carries the milestones the spans are cut from.
  EXPECT_GE(hang.first_suspicion_at, 0);
  EXPECT_GE(hang.confirmed_at, hang.first_suspicion_at);
  EXPECT_GE(hang.detected_at, hang.confirmed_at);
  const std::string journal_bytes = bytes.str();
  for (const char* span : {"fault-to-suspicion", "suspicion-to-confirm",
                           "confirm-to-kill", "fault-to-kill"}) {
    EXPECT_NE(journal_bytes.find("\"span\":\"" + std::string(span) + "\""),
              std::string::npos)
        << "missing span " << span;
  }
  // Spans are emitted inside the run framing, never after run_end.
  EXPECT_LT(journal_bytes.find("det_span"),
            journal_bytes.find("\"ev\":\"run_end\""));
}

}  // namespace
}  // namespace parastack::obs
