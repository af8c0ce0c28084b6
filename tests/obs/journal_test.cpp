#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "minijson.hpp"

namespace parastack::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(JsonlJournal, EveryEventTypeYieldsOneValidJsonLine) {
  std::ostringstream out;
  JsonlJournal::Options options;
  options.record_rank_spans = true;
  JsonlJournal journal(out, options);

  journal.on_event(RunStartEvent{});
  journal.on_event(MonitorSampleEvent{});
  journal.on_event(SampleEvent{});
  journal.on_event(RunsTestEvent{});
  journal.on_event(IntervalEvent{});
  StreakEvent streak;
  streak.reason = "suspicious-sample";
  journal.on_event(streak);
  FilterEvent filter;
  filter.evidence = "rank 2: entered MPI_Bcast";
  journal.on_event(filter);
  SweepEvent sweep;
  sweep.purpose = "faulty-id";
  journal.on_event(sweep);
  HangEvent hang;
  hang.faulty_ranks = {1, 2, 3};
  journal.on_event(hang);
  journal.on_event(SlowdownEvent{});
  journal.on_event(PhaseChangeEvent{});
  FaultEvent fault;
  fault.type = "compute-hang";
  journal.on_event(fault);
  RankSpanEvent span;
  span.func = "jacld";
  journal.on_event(span);
  journal.on_event(RunEndEvent{});

  const auto lines = lines_of(out.str());
  EXPECT_EQ(lines.size(), 14u);
  EXPECT_EQ(journal.lines_written(), lines.size());
  for (const auto& line : lines) {
    EXPECT_TRUE(testjson::is_valid_json(line)) << line;
    EXPECT_NE(line.find("\"ev\":"), std::string::npos) << line;
  }
}

TEST(JsonlJournal, SampleLineCarriesTheDetectorDecision) {
  std::ostringstream out;
  JsonlJournal journal(out);
  SampleEvent e;
  e.time = 1500000000;  // 1.5 virtual seconds
  e.scrout = 0.125;
  e.suspicious = true;
  e.streak = 4;
  e.required_streak = 5;
  e.threshold = 0.0625;
  journal.on_event(e);
  const auto line = out.str();
  EXPECT_NE(line.find("\"ev\":\"sample\""), std::string::npos);
  EXPECT_NE(line.find("\"t_ns\":1500000000"), std::string::npos);
  EXPECT_NE(line.find("\"scrout\":0.125"), std::string::npos);
  EXPECT_NE(line.find("\"suspicious\":true"), std::string::npos);
  EXPECT_NE(line.find("\"streak\":4"), std::string::npos);
  EXPECT_NE(line.find("\"k\":5"), std::string::npos);
}

TEST(JsonlJournal, HangLineRendersFaultyRanksAsArray) {
  std::ostringstream out;
  JsonlJournal journal(out);
  HangEvent e;
  e.computation_error = true;
  e.faulty_ranks = {7, 90};
  journal.on_event(e);
  const auto line = out.str();
  EXPECT_NE(line.find("\"faulty_ranks\":[7,90]"), std::string::npos) << line;
  EXPECT_NE(line.find("\"kind\":\"computation\""), std::string::npos);
}

TEST(JsonlJournal, RankSpansAreDroppedUnlessOptedIn) {
  std::ostringstream out;
  JsonlJournal journal(out);  // default: no spans
  EXPECT_FALSE(journal.wants_rank_spans());
  journal.on_event(RankSpanEvent{});
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(journal.lines_written(), 0u);
}

TEST(MultiSink, FansOutToAllChildren) {
  std::ostringstream out1;
  std::ostringstream out2;
  JsonlJournal j1(out1);
  JsonlJournal::Options with_spans;
  with_spans.record_rank_spans = true;
  JsonlJournal j2(out2, with_spans);
  MultiSink multi;
  EXPECT_TRUE(multi.empty());
  multi.add(&j1);
  EXPECT_FALSE(multi.wants_rank_spans());
  multi.add(&j2);
  EXPECT_TRUE(multi.wants_rank_spans());  // ORs its children
  multi.on_event(SampleEvent{});
  EXPECT_EQ(j1.lines_written(), 1u);
  EXPECT_EQ(j2.lines_written(), 1u);
}

}  // namespace
}  // namespace parastack::obs
