#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace parastack::obs {

namespace {

// Track layout: pid 0 = the simulated job (one tid per recorded rank),
// pid 1 = the tool (tid 0 detector, tid 1 monitor network).
constexpr int kJobPid = 0;
constexpr int kToolPid = 1;
constexpr int kDetectorTid = 0;
constexpr int kMonitorTid = 1;

/// Append a virtual instant or duration in microseconds with three
/// decimals, Chrome's `ts`/`dur` unit. Rendered from the integer
/// nanoseconds, so the digits are exact; they equal "%.3f" of t / 1e3 for
/// any |t| below 2^43 microseconds (101 days).
void append_ts(std::string& out, sim::Time t) {
  if (t < 0) {
    out += '-';
    t = -t;
  }
  json_integer(out, t / 1000);
  const auto ns = static_cast<int>(t % 1000);
  const char decimals[] = {'.', static_cast<char>('0' + ns / 100),
                           static_cast<char>('0' + ns / 10 % 10),
                           static_cast<char>('0' + ns % 10)};
  out.append(decimals, sizeof decimals);
}

const char* span_category(RankSpanEvent::Kind kind) {
  switch (kind) {
    case RankSpanEvent::Kind::kCompute: return "compute";
    case RankSpanEvent::Kind::kBlockingMpi: return "mpi";
    case RankSpanEvent::Kind::kBusyWait: return "busy-wait";
    case RankSpanEvent::Kind::kIo: return "io";
  }
  return "?";
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(Options options) : options_(options) {}

void ChromeTraceWriter::on_event(const Event& event) {
  std::visit([this](const auto& e) { record(e); }, event);
}

std::string& ChromeTraceWriter::begin_event() {
  events_.emplace_back();
  std::string& ev = events_.back();
  ev.reserve(128);
  return ev;
}

void ChromeTraceWriter::instant(sim::Time t, const char* name, bool global) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"";
  ev += global ? 'g' : 't';
  ev += "\",\"pid\":1,\"tid\":0,\"name\":\"";
  ev += name;
  ev += "\",\"ts\":";
  append_ts(ev, t);
  ev += '}';
}

void ChromeTraceWriter::counter(sim::Time t, const char* name, double value) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"";
  ev += name;
  ev += "\",\"ts\":";
  append_ts(ev, t);
  ev += ",\"args\":{\"value\":";
  json_number(ev, value);
  ev += "}}";
}

void ChromeTraceWriter::record(const RunStartEvent& e) {
  auto metadata = [this](int pid, int tid, const char* what,
                         const std::string& name) {
    std::string& ev = begin_event();
    char head[96];
    std::snprintf(head, sizeof head,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                  "\"args\":{\"name\":",
                  pid, tid, what);
    ev += head;
    json_string(ev, name);
    ev += "}}";
  };
  metadata(kJobPid, 0, "process_name",
           std::string(e.bench) + "(" + std::string(e.input) + ") x " +
               std::to_string(e.nranks));
  metadata(kToolPid, 0, "process_name", "parastack");
  metadata(kToolPid, kDetectorTid, "thread_name", "detector");
  metadata(kToolPid, kMonitorTid, "thread_name", "monitor-network");
  const int shown = std::min(options_.max_ranks, e.nranks);
  for (int r = 0; r < shown; ++r) {
    metadata(kJobPid, r, "thread_name", "rank " + std::to_string(r));
  }
}

void ChromeTraceWriter::record(const RankSpanEvent& e) {
  if (e.rank < 0 || e.rank >= options_.max_ranks) return;
  std::string& ev = begin_event();
  ev += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
  json_integer(ev, e.rank);
  ev += ",\"cat\":\"";
  ev += span_category(e.kind);
  ev += "\",\"name\":";
  json_string(ev, e.func);
  ev += ",\"ts\":";
  append_ts(ev, e.begin);
  ev += ",\"dur\":";
  append_ts(ev, std::max<sim::Time>(e.end - e.begin, 1));
  ev += '}';
}

void ChromeTraceWriter::record(const DetectionSpanEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"detection-latency\","
        "\"name\":";
  json_string(ev, e.span);
  ev += ",\"ts\":";
  append_ts(ev, e.begin);
  ev += ",\"dur\":";
  append_ts(ev, std::max<sim::Time>(e.end - e.begin, 1));
  ev += '}';
}

void ChromeTraceWriter::record(const SampleEvent& e) {
  counter(e.time, "S_crout", e.scrout);
  counter(e.time, "streak", static_cast<double>(e.streak));
  instant(e.time, e.suspicious ? "sample (suspicious)" : "sample", false);
}

void ChromeTraceWriter::record(const FilterEvent& e) {
  switch (e.stage) {
    case FilterEvent::Stage::kEnter:
      verification_started_ = e.time;
      return;
    case FilterEvent::Stage::kRetry:
      return;
    case FilterEvent::Stage::kSlowdown:
    case FilterEvent::Stage::kHangConfirmed: {
      if (verification_started_ < 0) return;
      std::string& ev = begin_event();
      ev += "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"verification\","
            "\"name\":\"";
      ev += e.stage == FilterEvent::Stage::kSlowdown ? "verify: slowdown"
                                                     : "verify: hang";
      ev += "\",\"ts\":";
      append_ts(ev, verification_started_);
      ev += ",\"dur\":";
      append_ts(ev, std::max<sim::Time>(e.time - verification_started_, 1));
      ev += '}';
      verification_started_ = -1;
      return;
    }
  }
}

void ChromeTraceWriter::record(const SweepEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"name\":\"sweep: ";
  ev.append(e.purpose.data(), e.purpose.size());
  ev += "\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::record(const HangEvent& e) {
  instant(e.time, e.computation_error ? "HANG (computation)"
                                      : "HANG (communication)",
          true);
}

void ChromeTraceWriter::record(const SlowdownEvent& e) {
  instant(e.time, "transient slowdown absorbed", true);
}

void ChromeTraceWriter::record(const MonitorSampleEvent& e) {
  tool_bytes_total_ += e.bytes;
  std::string& ev = begin_event();
  ev += "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"tool_bytes\",\"ts\":";
  append_ts(ev, e.time);
  ev += ",\"args\":{\"value\":";
  json_integer(ev, tool_bytes_total_);
  ev += "}}";
}

void ChromeTraceWriter::record(const MonitorLevelEvent& e) {
  // One complete event per tree level on the monitor-network track: the
  // per-level gather latency becomes a visible slice, widest-fan-in level
  // dominating the sample's aggregation span.
  std::string& ev = begin_event();
  ev += "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"tree-gather\","
        "\"name\":\"level ";
  json_integer(ev, e.level);
  ev += " gather\",\"ts\":";
  append_ts(ev, e.time);
  ev += ",\"dur\":";
  append_ts(ev, std::max<sim::Time>(e.latency, 1));
  ev += ",\"args\":{\"senders\":";
  json_integer(ev, e.senders);
  ev += ",\"max_fan_in\":";
  json_integer(ev, e.max_fan_in);
  ev += "}}";
}

void ChromeTraceWriter::record(const TreeFailoverEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,"
        "\"name\":\"tree failover: ";
  json_integer(ev, e.failed);
  ev += " -> ";
  json_integer(ev, e.promoted);
  ev += " (+";
  json_integer(ev, e.adopted);
  ev += " adopted)\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::record(const PhaseChangeEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"name\":\"phase ";
  json_integer(ev, e.from_phase);
  ev += " -> ";
  json_integer(ev, e.to_phase);
  ev += "\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::record(const FaultEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"name\":\"fault: ";
  ev.append(e.type.data(), e.type.size());
  ev += " @ rank ";
  json_integer(ev, e.victim);
  ev += "\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::write(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out << ',';
    out << '\n' << events_[i];
  }
  out << "\n]}\n";
}

}  // namespace parastack::obs
