#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "minijson.hpp"

namespace parastack::obs {
namespace {

std::string render(const ChromeTraceWriter& writer) {
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

TEST(ChromeTrace, EmptyTraceIsAValidDocument) {
  ChromeTraceWriter writer;
  const auto text = render(writer);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
}

TEST(ChromeTrace, RunStartEmitsProcessMetadata) {
  ChromeTraceWriter writer;
  RunStartEvent start;
  start.bench = "LU";
  start.input = "C";
  start.nranks = 32;
  writer.on_event(start);
  const auto text = render(writer);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
  EXPECT_NE(text.find("process_name"), std::string::npos);
  EXPECT_NE(text.find("LU(C) x 32"), std::string::npos);
  EXPECT_NE(text.find("detector"), std::string::npos);
  EXPECT_NE(text.find("monitor-network"), std::string::npos);
}

TEST(ChromeTrace, RankSpansBecomeCompleteEvents) {
  ChromeTraceWriter writer;
  EXPECT_TRUE(writer.wants_rank_spans());
  RankSpanEvent span;
  span.begin = 2000;  // ns -> 2 us
  span.end = 5000;
  span.rank = 3;
  span.kind = RankSpanEvent::Kind::kBlockingMpi;
  span.func = "MPI_Allreduce";
  writer.on_event(span);
  const auto text = render(writer);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"MPI_Allreduce\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\":3"), std::string::npos);
}

TEST(ChromeTrace, RanksBeyondTheCapAreSkipped) {
  ChromeTraceWriter::Options options;
  options.max_ranks = 4;
  ChromeTraceWriter writer(options);
  RankSpanEvent span;
  span.rank = 4;  // first rank past the cap
  span.end = 100;
  writer.on_event(span);
  EXPECT_EQ(writer.event_count(), 0u);
  span.rank = 0;
  writer.on_event(span);
  EXPECT_EQ(writer.event_count(), 1u);
}

TEST(ChromeTrace, ZeroRankCapDisablesSpanInterest) {
  ChromeTraceWriter::Options options;
  options.max_ranks = 0;
  ChromeTraceWriter writer(options);
  EXPECT_FALSE(writer.wants_rank_spans());
}

TEST(ChromeTrace, SamplesBecomeInstantsAndCounters) {
  ChromeTraceWriter writer;
  SampleEvent sample;
  sample.time = 1000000;
  sample.scrout = 0.5;
  sample.suspicious = true;
  sample.streak = 2;
  writer.on_event(sample);
  const auto text = render(writer);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("sample (suspicious)"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("S_crout"), std::string::npos);
}

TEST(ChromeTrace, VerificationWindowRendersAsSpan) {
  ChromeTraceWriter writer;
  FilterEvent enter;
  enter.time = 1000000;  // 1 ms
  enter.stage = FilterEvent::Stage::kEnter;
  writer.on_event(enter);
  FilterEvent confirm;
  confirm.time = 5000000;  // 5 ms
  confirm.stage = FilterEvent::Stage::kHangConfirmed;
  writer.on_event(confirm);
  HangEvent hang;
  hang.time = 5000000;
  writer.on_event(hang);
  const auto text = render(writer);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
  EXPECT_NE(text.find("verify: hang"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":4000.000"), std::string::npos) << text;
  EXPECT_NE(text.find("HANG (communication)"), std::string::npos);
}

TEST(ChromeTrace, EscapesQuotesInNames) {
  ChromeTraceWriter writer;
  RankSpanEvent span;
  span.end = 10;
  span.func = "weird\"name";
  writer.on_event(span);
  const auto text = render(writer);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
}

}  // namespace
}  // namespace parastack::obs
