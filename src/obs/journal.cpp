#include "obs/journal.hpp"

#include <iterator>

#include "obs/json.hpp"

namespace parastack::obs {

namespace {

const char* streak_kind_name(StreakEvent::Kind kind) {
  switch (kind) {
    case StreakEvent::Kind::kAdvance: return "advance";
    case StreakEvent::Kind::kReset: return "reset";
    case StreakEvent::Kind::kVerify: return "verify";
  }
  return "?";
}

const char* filter_stage_name(FilterEvent::Stage stage) {
  switch (stage) {
    case FilterEvent::Stage::kEnter: return "enter";
    case FilterEvent::Stage::kRetry: return "retry";
    case FilterEvent::Stage::kSlowdown: return "slowdown";
    case FilterEvent::Stage::kHangConfirmed: return "hang-confirmed";
  }
  return "?";
}

const char* span_kind_name(RankSpanEvent::Kind kind) {
  switch (kind) {
    case RankSpanEvent::Kind::kCompute: return "compute";
    case RankSpanEvent::Kind::kBlockingMpi: return "mpi";
    case RankSpanEvent::Kind::kBusyWait: return "busy-wait";
    case RankSpanEvent::Kind::kIo: return "io";
  }
  return "?";
}

// One overload per event kind writes that kind's fields after `ev` and
// `det`. There is deliberately no catch-all: a kind the journal cannot
// render fails to compile.

void fields(JsonObject& line, const SampleEvent& e) {
  line.field("t_ns", e.time)
      .field("phase", e.phase)
      .field("set", e.active_set)
      .field("n", e.observation)
      .field("scrout", e.scrout)
      .field("interval_ns", e.interval)
      .field("ready", e.model_ready)
      .field("random_ok", e.randomness_confirmed)
      .field("frozen", e.model_frozen)
      .field("threshold", e.threshold)
      .field("q", e.q)
      .field("k", e.required_streak)
      .field("suspicious", e.suspicious)
      .field("streak", e.streak);
  if (e.coverage < 1.0 || e.degraded) {
    line.field("coverage", e.coverage).field("degraded", e.degraded);
  }
}

void fields(JsonObject& line, const RunsTestEvent& e) {
  line.field("t_ns", e.time)
      .field("sample_size", e.sample_size)
      .field("runs", e.runs)
      .field("n_pos", e.n_pos)
      .field("n_neg", e.n_neg)
      .field("random", e.random);
}

void fields(JsonObject& line, const IntervalEvent& e) {
  line.field("t_ns", e.time)
      .field("old_ns", e.old_interval)
      .field("new_ns", e.new_interval)
      .field("doublings", e.doublings)
      .field("capped", e.capped);
}

void fields(JsonObject& line, const StreakEvent& e) {
  line.field("t_ns", e.time)
      .field("kind", streak_kind_name(e.kind))
      .field("len", e.length)
      .field("k", e.required)
      .field("reason", e.reason);
}

void fields(JsonObject& line, const FilterEvent& e) {
  line.field("t_ns", e.time)
      .field("stage", filter_stage_name(e.stage))
      .field("round", e.round);
  if (!e.evidence.empty()) line.field("evidence", e.evidence);
}

void fields(JsonObject& line, const SweepEvent& e) {
  line.field("t_ns", e.time)
      .field("ranks", e.ranks)
      .field("purpose", e.purpose)
      .field("round", e.round);
}

void fields(JsonObject& line, const HangEvent& e) {
  line.field("t_ns", e.time)
      .field("kind", e.computation_error ? "computation" : "communication")
      .field("faulty_ranks", e.faulty_ranks)
      .field("streak", e.streak)
      .field("q", e.q)
      .field("k", e.required_streak)
      .field("interval_ns", e.interval);
}

void fields(JsonObject& line, const SlowdownEvent& e) {
  line.field("t_ns", e.time).field("rounds", e.rounds);
  if (!e.evidence.empty()) line.field("evidence", e.evidence);
}

void fields(JsonObject& line, const DetectionEvent& e) {
  line.field("t_ns", e.time).field("kind", e.kind);
  if (e.silence > 0) line.field("silence_ns", e.silence);
}

void fields(JsonObject& line, const MonitorSampleEvent& e) {
  line.field("t_ns", e.time)
      .field("ranks_traced", e.ranks_traced)
      .field("active", e.active_monitors)
      .field("monitors", e.monitor_count)
      .field("messages", e.messages)
      .field("bytes", e.bytes)
      .field("agg_latency_ns", e.aggregation_latency)
      .field("levels", e.levels)
      .field("root_fan_in", e.root_fan_in);
  // Tool-fault fields appear only on impaired samples: healthy journals
  // stay byte-identical to the pre-fault-model format.
  if (e.partials_missing > 0 || e.retries > 0 || e.coverage < 1.0 ||
      e.degraded) {
    line.field("missing", e.partials_missing)
        .field("retries", e.retries)
        .field("coverage", e.coverage)
        .field("degraded", e.degraded);
  }
}

void fields(JsonObject& line, const MonitorLevelEvent& e) {
  line.field("t_ns", e.time)
      .field("level", e.level)
      .field("senders", e.senders)
      .field("max_fan_in", e.max_fan_in)
      .field("latency_ns", e.latency);
}

void fields(JsonObject& line, const MonitorCrashEvent& e) {
  line.field("t_ns", e.time)
      .field("monitor", e.monitor)
      .field("was_lead", e.was_lead)
      .field("alive", e.alive);
}

void fields(JsonObject& line, const LeadFailoverEvent& e) {
  line.field("t_ns", e.time)
      .field("from", e.from)
      .field("to", e.to)
      .field("rereg_ns", e.reregistration_latency);
}

void fields(JsonObject& line, const TreeFailoverEvent& e) {
  line.field("t_ns", e.time)
      .field("failed", e.failed)
      .field("promoted", e.promoted)
      .field("parent", e.parent)
      .field("adopted", e.adopted)
      .field("rereg_ns", e.reregistration_latency);
}

void fields(JsonObject& line, const SampleTimeoutEvent& e) {
  line.field("t_ns", e.time)
      .field("monitor", e.monitor)
      .field("retries", e.retries)
      .field("recovered", e.recovered);
}

void fields(JsonObject& line, const DegradedModeEvent& e) {
  line.field("t_ns", e.time)
      .field("entered", e.entered)
      .field("coverage", e.coverage)
      .field("low_streak", e.consecutive_low);
}

void fields(JsonObject& line, const PhaseChangeEvent& e) {
  line.field("t_ns", e.time)
      .field("from", e.from_phase)
      .field("to", e.to_phase)
      .field("resumed", e.resumed)
      .field("aborted_verification", e.aborted_verification);
}

void fields(JsonObject& line, const FaultEvent& e) {
  line.field("t_ns", e.time)
      .field("type", e.type)
      .field("victim", e.victim);
}

void fields(JsonObject& line, const RunStartEvent& e) {
  line.field("bench", e.bench)
      .field("input", e.input)
      .field("ranks", e.nranks)
      .field("nodes", e.nnodes)
      .field("platform", e.platform)
      .field("seed", e.seed)
      .field("run", e.run_index)
      .field("estimated_clean_ns", e.estimated_clean)
      .field("walltime_ns", e.walltime)
      .field("fault", e.fault_planned);
}

void fields(JsonObject& line, const RunEndEvent& e) {
  line.field("t_ns", e.time)
      .field("run", e.run_index)
      .field("completed", e.completed)
      .field("killed", e.killed)
      .field("finish_ns", e.finish_time)
      .field("end_ns", e.end_time)
      .field("traces", e.traces)
      .field("trace_cost_ns", e.trace_cost)
      .field("hangs", e.hangs)
      .field("slowdowns", e.slowdowns)
      .field("model_samples", e.model_samples)
      .field("final_interval_ns", e.final_interval);
}

void fields(JsonObject& line, const RecoveryEvent& e) {
  line.field("t_ns", e.time)
      .field("policy", e.policy)
      .field("action", e.action)
      .field("attempt", e.attempt)
      .field("degraded", e.degraded)
      .field("resume_ns", e.resume_from)
      .field("overhead_ns", e.overhead)
      .field("next_start_ns", e.next_start)
      .field("run", e.run_index);
  if (!e.detail.empty()) line.field("detail", e.detail);
}

void fields(JsonObject& line, const FleetAdmitEvent& e) {
  line.field("t_ns", e.time)
      .field("tenant", e.tenant)
      .field("admitted", e.admitted)
      .field("monitors", e.monitors)
      .field("pool_in_use", e.pool_in_use);
  if (e.pool_capacity > 0) line.field("pool_capacity", e.pool_capacity);
}

void fields(JsonObject& line, const DetectionSpanEvent& e) {
  line.field("t_ns", e.time)
      .field("span", e.span)
      .field("begin_ns", e.begin)
      .field("end_ns", e.end)
      .field("run", e.run_index);
}

void fields(JsonObject& line, const RankSpanEvent& e) {
  line.field("rank", e.rank)
      .field("kind", span_kind_name(e.kind))
      .field("func", e.func)
      .field("begin_ns", e.begin)
      .field("end_ns", e.end);
}

/// The `ev` tag of each kind, in Event's alternative order.
constexpr std::string_view kEventNames[] = {
    "sample", "runs_test", "interval_doubled", "streak", "filter", "sweep",
    "hang", "slowdown", "detection", "monitor_sample", "monitor_level",
    "monitor_crash", "lead_failover", "tree_failover", "sample_timeout",
    "degraded_mode", "phase_change", "fault", "run_start", "run_end",
    "recovery", "fleet_admit", "det_span", "rank_span"};
static_assert(std::size(kEventNames) == std::variant_size_v<Event>);

}  // namespace

std::string_view event_name(const Event& event) {
  return kEventNames[event.index()];
}

void JsonlJournal::on_event(const Event& event) {
  if (std::holds_alternative<RankSpanEvent>(event) &&
      !options_.record_rank_spans) {
    return;
  }
  line_.clear();
  {
    JsonObject line(line_);
    line.field("ev", event_name(event));
    std::visit(
        [&line](const auto& e) {
          if constexpr (requires { e.detector; }) {
            if (!e.detector.empty()) line.field("det", e.detector);
          }
          fields(line, e);
        },
        event);
  }
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++lines_;
}

}  // namespace parastack::obs
