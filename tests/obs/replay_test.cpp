#include "obs/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/journal.hpp"

namespace parastack::obs {
namespace {

// Emit a representative event mix into a sink. String-view fields point
// at a short-lived buffer on purpose: the recorder must deep-copy them.
void emit_stream(TelemetrySink& sink) {
  {
    std::string bench = "lu";
    std::string input = "C";
    std::string platform = "tianhe2";
    std::string fault = "compute_hang";
    RunStartEvent start;
    start.bench = bench;
    start.input = input;
    start.nranks = 32;
    start.nnodes = 2;
    start.platform = platform;
    start.seed = 1234;
    start.run_index = 3;
    start.estimated_clean = 100 * sim::kSecond;
    start.walltime = 200 * sim::kSecond;
    start.fault_planned = fault;
    sink.on_event(start);
  }  // the backing strings die here

  SampleEvent sample;
  sample.time = 5 * sim::kSecond;
  sample.observation = 1;
  sample.scrout = 0.25;
  sample.threshold = 0.1;
  sink.on_event(sample);

  HangEvent hang;
  hang.time = 50 * sim::kSecond;
  hang.computation_error = true;
  hang.faulty_ranks = {7, 9};
  hang.streak = 4;
  hang.q = 0.05;
  hang.required_streak = 4;
  sink.on_event(hang);
}

std::string journal_of(const RecordingSink* recording) {
  std::ostringstream out;
  JsonlJournal journal(out);
  if (recording != nullptr) {
    recording->replay(journal);
  } else {
    emit_stream(journal);
  }
  return out.str();
}

TEST(RecordingSink, ReplayMatchesDirectEmissionByteForByte) {
  RecordingSink recording;
  emit_stream(recording);
  EXPECT_EQ(recording.size(), 3u);
  EXPECT_EQ(journal_of(&recording), journal_of(nullptr));
}

TEST(RecordingSink, SurvivesTheProducersStringsDying) {
  // emit_stream's RunStartEvent views local strings that are gone by the
  // time we replay; the interned copies must still render correctly.
  RecordingSink recording;
  emit_stream(recording);
  const std::string text = journal_of(&recording);
  EXPECT_NE(text.find("tianhe2"), std::string::npos);
  EXPECT_NE(text.find("compute_hang"), std::string::npos);
}

TEST(RecordingSink, ReplayIsRepeatable) {
  RecordingSink recording;
  emit_stream(recording);
  EXPECT_EQ(journal_of(&recording), journal_of(&recording));
}

// One populated instance of every event kind, in Event's alternative
// order. Every string view points into `text`.
auto every_kind(std::deque<std::string>& text) {
  const auto view = [&text](const char* s) -> std::string_view {
    return text.emplace_back(s);
  };
  const std::string_view det = view("parastack");
  constexpr sim::Time kSec = sim::kSecond;
  return std::to_array<Event>({
      SampleEvent{.time = 1 * kSec, .detector = det, .phase = 2,
                  .active_set = 1, .observation = 3, .scrout = 0.25,
                  .interval = kSec, .model_ready = true,
                  .randomness_confirmed = true, .model_frozen = true,
                  .threshold = 0.5, .q = 0.125, .required_streak = 4,
                  .suspicious = true, .streak = 2, .coverage = 0.75,
                  .degraded = true},
      RunsTestEvent{.time = 2 * kSec, .detector = det, .sample_size = 10,
                    .runs = 5, .n_pos = 6, .n_neg = 4, .random = true},
      IntervalEvent{.time = 3 * kSec, .detector = det, .old_interval = kSec,
                    .new_interval = 2 * kSec, .doublings = 1, .capped = true},
      StreakEvent{.time = 4 * kSec, .detector = det,
                  .kind = StreakEvent::Kind::kVerify, .length = 4,
                  .required = 4, .reason = view("suspicious-sample")},
      FilterEvent{.time = 5 * kSec, .detector = det,
                  .stage = FilterEvent::Stage::kSlowdown, .round = 2,
                  .evidence = "rank 3: entered MPI_Bcast"},
      SweepEvent{.time = 6 * kSec, .detector = det, .ranks = 64,
                 .purpose = view("faulty-id"), .round = 1},
      HangEvent{.time = 7 * kSec, .detector = det, .computation_error = true,
                .faulty_ranks = {7, 9}, .streak = 4, .q = 0.125,
                .required_streak = 4, .interval = kSec},
      SlowdownEvent{.time = 8 * kSec, .detector = det, .rounds = 2,
                    .evidence = "rank 5: left MPI_Wait"},
      DetectionEvent{.time = 9 * kSec, .detector = det,
                     .kind = view("io-watchdog"), .silence = 3 * kSec},
      MonitorSampleEvent{.time = 10 * kSec, .ranks_traced = 32,
                         .active_monitors = 3, .monitor_count = 4,
                         .messages = 6, .bytes = 48,
                         .aggregation_latency = 1000, .tree = true,
                         .levels = 2, .root_fan_in = 2,
                         .partials_missing = 1, .retries = 2,
                         .coverage = 0.75, .degraded = false},
      MonitorLevelEvent{.time = 11 * kSec, .level = 1, .senders = 2,
                        .max_fan_in = 2, .latency = 500},
      MonitorCrashEvent{.time = 12 * kSec, .monitor = 1, .was_lead = true,
                        .alive = 3},
      LeadFailoverEvent{.time = 13 * kSec, .from = 0, .to = 1,
                        .reregistration_latency = 2000},
      TreeFailoverEvent{.time = 14 * kSec, .failed = 1, .promoted = 3,
                        .parent = 0, .adopted = 1,
                        .reregistration_latency = 2000},
      SampleTimeoutEvent{.time = 15 * kSec, .monitor = 2, .retries = 3,
                         .recovered = true},
      DegradedModeEvent{.time = 16 * kSec, .detector = det, .entered = true,
                        .coverage = 0.25, .consecutive_low = 3},
      PhaseChangeEvent{.time = 17 * kSec, .detector = det, .from_phase = 1,
                       .to_phase = 2, .resumed = true,
                       .aborted_verification = true},
      FaultEvent{.time = 18 * kSec, .type = view("compute-hang"), .victim = 9},
      RunStartEvent{.bench = view("LU"), .input = view("C"), .nranks = 64,
                    .nnodes = 3, .platform = view("Tianhe-2"), .seed = 7,
                    .run_index = 1, .estimated_clean = 90 * kSec,
                    .walltime = 180 * kSec,
                    .fault_planned = view("compute-hang")},
      RunEndEvent{.time = 19 * kSec, .run_index = 1, .completed = false,
                  .killed = true, .finish_time = -1, .end_time = 19 * kSec,
                  .traces = 40, .trace_cost = 3000, .hangs = 1,
                  .slowdowns = 1, .model_samples = 30,
                  .final_interval = 2 * kSec},
      RecoveryEvent{.time = 20 * kSec, .policy = view("ckpt"),
                    .action = view("restore"), .attempt = 1,
                    .degraded = true, .resume_from = 10 * kSec,
                    .overhead = 5 * kSec, .next_start = 25 * kSec,
                    .run_index = 1, .detail = "snapshot at 10 s"},
      FleetAdmitEvent{.time = 21 * kSec, .tenant = 2, .admitted = true,
                      .monitors = 3, .pool_in_use = 5, .pool_capacity = 8},
      DetectionSpanEvent{.time = 22 * kSec, .detector = det,
                         .span = view("fault-to-kill"), .begin = 18 * kSec,
                         .end = 19 * kSec, .run_index = 1},
      RankSpanEvent{.begin = 1 * kSec, .end = 2 * kSec, .rank = 4,
                    .kind = RankSpanEvent::Kind::kBusyWait,
                    .func = view("MPI_Test")},
  });
}

std::vector<std::string> ev_names(const std::string& journal) {
  std::vector<std::string> names;
  std::istringstream in(journal);
  for (std::string line; std::getline(in, line);) {
    const auto begin = line.find("\"ev\":\"") + 6;
    names.push_back(line.substr(begin, line.find('"', begin) - begin));
  }
  return names;
}

TEST(RecordingSink, EveryEventKindSurvivesRecordAndReplay) {
  JsonlJournal::Options spans;
  spans.record_rank_spans = true;
  std::ostringstream direct;
  JsonlJournal direct_journal(direct, spans);
  RecordingSink recording(true);
  {
    auto text = std::make_unique<std::deque<std::string>>();
    const auto events = every_kind(*text);
    static_assert(std::tuple_size_v<decltype(events)> ==
                  std::variant_size_v<Event>);
    for (const Event& event : events) {
      direct_journal.on_event(event);
      recording.on_event(event);
    }
    // Scribble before freeing, so a view the recorder kept into this
    // buffer renders as '#' even where the freed memory is not reused.
    for (std::string& s : *text) std::fill(s.begin(), s.end(), '#');
  }  // the views' buffer dies here
  EXPECT_EQ(recording.size(), std::variant_size_v<Event>);

  std::ostringstream replayed;
  JsonlJournal replay_journal(replayed, spans);
  recording.replay(replay_journal);
  EXPECT_EQ(replayed.str(), direct.str());
  EXPECT_EQ(replayed.str().find('#'), std::string::npos);

  const std::vector<std::string> names = ev_names(replayed.str());
  EXPECT_EQ(names.size(), std::variant_size_v<Event>);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            std::variant_size_v<Event>);
  const std::vector<std::string> expected = {
      "sample", "runs_test", "interval_doubled", "streak", "filter", "sweep",
      "hang", "slowdown", "detection", "monitor_sample", "monitor_level",
      "monitor_crash", "lead_failover", "tree_failover", "sample_timeout",
      "degraded_mode", "phase_change", "fault", "run_start", "run_end",
      "recovery", "fleet_admit", "det_span", "rank_span"};
  EXPECT_EQ(names, expected);
}

TEST(RecordingSink, MirrorsRankSpanAppetite) {
  EXPECT_FALSE(RecordingSink(false).wants_rank_spans());
  EXPECT_TRUE(RecordingSink(true).wants_rank_spans());
}

TEST(RecordingSink, StartsEmpty) {
  const RecordingSink recording;
  EXPECT_TRUE(recording.empty());
  EXPECT_EQ(recording.size(), 0u);
}

}  // namespace
}  // namespace parastack::obs
