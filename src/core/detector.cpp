#include "core/detector.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/slowdown_filter.hpp"
#include "obs/perf.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace parastack::core {

namespace {

/// Switch between the two disjoint monitor sets every this many
/// observations at least (§3.3: 30 > ceil(log_0.77 0.001) = 27).
constexpr std::size_t kSetSwitchPeriod = 30;

/// Smallest gap between two slowdown-filter rounds (see verification_gap).
constexpr sim::Time kRecheckGap = sim::from_millis(300);

void emit_streak(obs::TelemetrySink* sink, sim::Time now,
                 std::string_view detector, obs::StreakEvent::Kind kind,
                 std::size_t length, std::size_t required,
                 std::string_view reason) {
  if (sink == nullptr) return;
  obs::StreakEvent event;
  event.time = now;
  event.detector = detector;
  event.kind = kind;
  event.length = length;
  event.required = required;
  event.reason = reason;
  sink->on_event(event);
}

}  // namespace

HangDetector::HangDetector(simmpi::World& world,
                           trace::StackInspector& inspector,
                           DetectorConfig config)
    : Detector(DetectorKind::kParastack),
      world_(world),
      inspector_(inspector),
      config_(config),
      rng_(config.seed),
      sampler_(world, inspector, config_, rng_),
      tuner_(config_),
      judge_(config_) {
  PS_CHECK(config_.alpha > 0.0 && config_.alpha < 1.0, "alpha in (0,1)");
  if (obs::perf::ProfileRegistry* perf = world_.engine().perf();
      perf != nullptr) {
    perf_sampler_ = {perf->counter("stage.sampler.calls"),
                     perf->timer("stage.sampler")};
    perf_tuner_ = {perf->counter("stage.tuner.calls"),
                   perf->timer("stage.tuner")};
    perf_judge_ = {perf->counter("stage.judge.calls"),
                   perf->timer("stage.judge")};
    perf_filter_ = {perf->counter("stage.filter.calls"),
                    perf->timer("stage.filter")};
    perf_identifier_ = {perf->counter("stage.identifier.calls"),
                        perf->timer("stage.identifier")};
  }
}

void HangDetector::notify_phase_change(int phase_id) {
  if (phase_id == judge_.current_phase() || state_ == State::kDone) return;
  const int from_phase = judge_.current_phase();
  // Stash the outgoing phase's model + tuning, restore the incoming one's.
  const bool resumed = judge_.switch_phase(phase_id, tuner_);

  const sim::Time now = world_.engine().now();
  obs::TelemetrySink* sink = world_.engine().telemetry();
  if (judge_.streak() > 0) {
    emit_streak(sink, now, label(), obs::StreakEvent::Kind::kReset,
                judge_.streak(), judge_.decision().k, "phase-change");
  }
  judge_.reset_streak();  // samples across a phase boundary: not one streak

  util::debug_log("phase change %d -> %d (%s model)", from_phase, phase_id,
                  resumed ? "resumed" : "fresh");
  if (sink != nullptr) {
    obs::PhaseChangeEvent event;
    event.time = now;
    event.detector = label();
    event.from_phase = from_phase;
    event.to_phase = phase_id;
    event.resumed = resumed;
    event.aborted_verification = state_ == State::kVerifying;
    sink->on_event(event);
  }

  // A phase change is progress: abandon any in-flight hang verification.
  if (state_ == State::kVerifying) {
    state_ = State::kSampling;
    schedule_next_sample();
  }
}

void HangDetector::start() {
  PS_CHECK(state_ == State::kIdle, "detector started twice");
  state_ = State::kSampling;
  schedule_next_sample();
}

void HangDetector::schedule_next_sample() {
  world_.engine().schedule_after(sampler_.next_delay(tuner_.interval()),
                                 [this] { take_sample(); });
}

void HangDetector::take_sample() {
  if (stopped_ || state_ != State::kSampling) return;
  PS_PERF_ADD(perf_sampler_.calls, 1);
  const auto qualified = [&] {
    PS_PERF_SCOPE(scope, perf_sampler_.timer);
    return sampler_.measure_qualified();
  }();
  // Coverage-scaled estimate: unseen ranks count as IN_MPI — conservative
  // for hang detection (a hung rank that went unobserved can only make the
  // sample look *more* suspicious, never less). Exact identity when the
  // tool is healthy (coverage == 1).
  const double sample = qualified.scrout * qualified.coverage;
  obs::TelemetrySink* sink = world_.engine().telemetry();
  const sim::Time now = world_.engine().now();
  // §3.3: alternate between the two disjoint sets, staying on each long
  // enough to complete a verification streak. The paper's fixed 30 relies
  // on q <= 0.77 (k <= 27); with heavily zero-massed distributions (e.g.
  // wait-dominated apps) q — and hence k — can exceed that, so the dwell
  // time adapts to the current k.
  const std::size_t required_dwell =
      std::max(kSetSwitchPeriod, judge_.decision().k + 3);
  if (sampler_.count_observation(required_dwell)) {
    if (judge_.streak() > 0) {
      emit_streak(sink, now, label(), obs::StreakEvent::Kind::kReset,
                  judge_.streak(), judge_.decision().k, "set-switch");
    }
    judge_.reset_streak();  // suspicions must be observed on a single set
  }

  const bool freeze = judge_.model_frozen();
  // Below-quorum samples are withheld from the model: a half-blind tool
  // must not teach the model that low S_crout values are normal.
  const bool meets_quorum =
      qualified.coverage >= SuspicionJudge::kCoverageQuorum;
  if (!freeze && meets_quorum) {
    judge_.model().add_sample(sample);
    PS_PERF_ADD(perf_tuner_.calls, 1);
    PS_PERF_SCOPE(tuner_scope, perf_tuner_.timer);
    tuner_.on_model_sample(judge_.model(), sink, now, label());
  }

  PS_PERF_ADD(perf_judge_.calls, 1);
  const auto verdict = [&] {
    PS_PERF_SCOPE(scope, perf_judge_.timer);
    return judge_.judge(sample, tuner_.randomness_confirmed(),
                        qualified.coverage);
  }();
  if (verdict.entered_degraded) ++degraded_entries_;
  // A fresh streak (0 -> 1) marks the first-suspicion milestone of the
  // detection-latency breakdown.
  if (verdict.suspicious && judge_.streak() == 1) streak_started_at_ = now;

  if (sink != nullptr) {
    obs::SampleEvent event;
    event.time = now;
    event.detector = label();
    event.phase = judge_.current_phase();
    event.active_set = sampler_.active_set();
    event.observation = sampler_.observations();
    event.scrout = sample;
    event.interval = tuner_.interval();
    event.model_ready = verdict.decision.ready;
    event.randomness_confirmed = tuner_.randomness_confirmed();
    event.model_frozen = freeze;
    event.threshold = verdict.decision.threshold;
    event.q = verdict.decision.q;
    event.required_streak = verdict.decision.k;
    event.suspicious = verdict.suspicious;
    event.streak = judge_.streak();
    event.coverage = qualified.coverage;
    event.degraded = judge_.degraded_mode();
    sink->on_event(event);
    if (verdict.suspicious) {
      emit_streak(sink, now, label(),
                  verdict.verify ? obs::StreakEvent::Kind::kVerify
                                 : obs::StreakEvent::Kind::kAdvance,
                  judge_.streak(), verdict.required, "suspicious-sample");
    } else if (verdict.ended_streak > 0) {
      emit_streak(sink, now, label(), obs::StreakEvent::Kind::kReset,
                  verdict.ended_streak, verdict.decision.k, "healthy-sample");
    }
  }

  if (verdict.entered_degraded || verdict.exited_degraded) {
    util::debug_log("degraded mode %s at t=%.2fs (coverage %.2f)",
                    verdict.entered_degraded ? "entered" : "exited",
                    sim::to_seconds(now), qualified.coverage);
    if (sink != nullptr) {
      obs::DegradedModeEvent event;
      event.time = now;
      event.detector = label();
      event.entered = verdict.entered_degraded;
      event.coverage = qualified.coverage;
      event.consecutive_low = judge_.consecutive_low_coverage();
      sink->on_event(event);
    }
    if (on_degraded) on_degraded(verdict.entered_degraded);
  }

  if (verdict.verify) {
    util::debug_log("streak %zu/%zu complete at t=%.2fs; entering verification",
                    judge_.streak(), verdict.decision.k, sim::to_seconds(now));
    begin_verification();
    return;
  }
  schedule_next_sample();
}

sim::Time HangDetector::verification_gap() const {
  // Wide enough that a healthy app crossing a long collective (FT's
  // transposes) shows movement between the two rounds; a real hang is
  // static at any gap. Later rounds double it, capped at 4 s.
  return std::clamp(tuner_.interval(), kRecheckGap, 4 * sim::kSecond);
}

std::vector<trace::StackSnapshot> HangDetector::sweep_all_ranks() {
  std::vector<trace::StackSnapshot> snapshots;
  snapshots.reserve(static_cast<std::size_t>(world_.nranks()));
  for (simmpi::Rank r = 0; r < world_.nranks(); ++r) {
    snapshots.push_back(inspector_.trace(r));
  }
  return snapshots;
}

void HangDetector::begin_verification() {
  state_ = State::kVerifying;
  obs::TelemetrySink* sink = world_.engine().telemetry();
  PS_PERF_ADD(perf_filter_.calls, 1);
  {
    PS_PERF_SCOPE(scope, perf_filter_.timer);
    filter_.begin(sweep_all_ranks());
  }
  const sim::Time now = world_.engine().now();
  util::debug_log("verification: filter round 1 swept %d ranks",
                  world_.nranks());
  if (sink != nullptr) {
    obs::FilterEvent event;
    event.time = now;
    event.detector = label();
    event.stage = obs::FilterEvent::Stage::kEnter;
    event.round = 1;
    sink->on_event(std::move(event));
    obs::SweepEvent sweep;
    sweep.time = now;
    sweep.detector = label();
    sweep.ranks = world_.nranks();
    sweep.purpose = "slowdown-filter";
    sweep.round = 1;
    sink->on_event(sweep);
  }
  world_.engine().schedule_after(verification_gap(),
                                 [this] { continue_filter(); });
}

void HangDetector::continue_filter() {
  if (stopped_ || state_ != State::kVerifying) return;
  auto round = sweep_all_ranks();
  obs::TelemetrySink* sink = world_.engine().telemetry();
  const sim::Time now = world_.engine().now();
  if (sink != nullptr) {
    obs::SweepEvent sweep;
    sweep.time = now;
    sweep.detector = label();
    sweep.ranks = world_.nranks();
    sweep.purpose = "slowdown-filter";
    sweep.round = filter_.rounds_done() + 1;
    sink->on_event(sweep);
  }
  PS_PERF_ADD(perf_filter_.calls, 1);
  const auto check = [&] {
    PS_PERF_SCOPE(scope, perf_filter_.timer);
    return filter_.check(std::move(round));
  }();
  if (check.outcome == TransientFilter::Outcome::kSlowdown) {
    conclude_slowdown(check.evidence);
    return;
  }
  if (check.outcome == TransientFilter::Outcome::kHangConfirmed) {
    confirmed_at_ = now;
    util::debug_log("filter: %d static rounds; hang confirmed",
                    filter_.rounds_done());
    if (sink != nullptr) {
      obs::FilterEvent event;
      event.time = now;
      event.detector = label();
      event.stage = obs::FilterEvent::Stage::kHangConfirmed;
      event.round = filter_.rounds_done();
      sink->on_event(std::move(event));
    }
    identifier_.reset();
    faulty_sweep_round();
    return;
  }
  // No movement yet; look again after a longer gap (a transient that is
  // merely *slow* needs a wider observation window than a frozen hang).
  if (sink != nullptr) {
    obs::FilterEvent event;
    event.time = now;
    event.detector = label();
    event.stage = obs::FilterEvent::Stage::kRetry;
    event.round = filter_.rounds_done();
    sink->on_event(std::move(event));
  }
  const sim::Time gap = std::min<sim::Time>(
      verification_gap() << (filter_.rounds_done() - 1), 4 * sim::kSecond);
  world_.engine().schedule_after(gap, [this] { continue_filter(); });
}

void HangDetector::conclude_slowdown(const SlowdownEvidence& evidence) {
  const sim::Time now = world_.engine().now();
  std::string what =
      "rank " + std::to_string(evidence.rank) + ": " + evidence.what;
  SlowdownReport report;
  report.detected_at = now;
  report.filter_rounds = filter_.rounds_done() + 1;
  report.evidence = what;
  slowdown_reports_.push_back(report);
  util::debug_log("filter verdict: transient slowdown (%s); resuming sampling",
                  what.c_str());
  obs::TelemetrySink* sink = world_.engine().telemetry();
  if (sink != nullptr) {
    obs::FilterEvent event;
    event.time = now;
    event.detector = label();
    event.stage = obs::FilterEvent::Stage::kSlowdown;
    event.round = filter_.rounds_done() + 1;
    event.evidence = what;
    sink->on_event(std::move(event));
    obs::SlowdownEvent slowdown;
    slowdown.time = now;
    slowdown.detector = label();
    slowdown.rounds = filter_.rounds_done() + 1;
    slowdown.evidence = what;
    sink->on_event(std::move(slowdown));
    if (judge_.streak() > 0) {
      emit_streak(sink, now, label(), obs::StreakEvent::Kind::kReset,
                  judge_.streak(), judge_.decision().k, "slowdown-verdict");
    }
  }
  judge_.reset_streak();
  state_ = State::kSampling;
  if (on_slowdown) on_slowdown(report);
  schedule_next_sample();
}

void HangDetector::faulty_sweep_round() {
  if (stopped_ || state_ != State::kVerifying) return;
  PS_PERF_ADD(perf_identifier_.calls, 1);
  const bool done = [&] {
    PS_PERF_SCOPE(scope, perf_identifier_.timer);
    return identifier_.add_sweep(sweep_all_ranks());
  }();
  if (obs::TelemetrySink* sink = world_.engine().telemetry(); sink != nullptr) {
    obs::SweepEvent sweep;
    sweep.time = world_.engine().now();
    sweep.detector = label();
    sweep.ranks = world_.nranks();
    sweep.purpose = "faulty-id";
    sweep.round = identifier_.rounds();
    sink->on_event(sweep);
  }
  if (!done) {
    world_.engine().schedule_after(FaultyIdentifier::kGap,
                                   [this] { faulty_sweep_round(); });
    return;
  }
  report_hang();
}

void HangDetector::report_hang() {
  const auto decision = judge_.decision();
  HangReport report;
  report.detected_at = world_.engine().now();
  report.faulty_ranks = identifier_.identify();
  report.kind = report.faulty_ranks.empty() ? HangKind::kCommunicationError
                                            : HangKind::kComputationError;
  report.suspicion_streak = judge_.streak();
  report.q = decision.q;
  report.required_streak = decision.k;
  report.interval = tuner_.interval();
  report.first_suspicion_at = streak_started_at_;
  report.confirmed_at = confirmed_at_;
  hang_reports_.push_back(report);
  state_ = State::kDone;
  util::debug_log("hang reported at t=%.2fs (%zu faulty ranks)",
                  sim::to_seconds(report.detected_at),
                  report.faulty_ranks.size());
  if (obs::TelemetrySink* sink = world_.engine().telemetry(); sink != nullptr) {
    obs::HangEvent event;
    event.time = report.detected_at;
    event.detector = label();
    event.computation_error = report.kind == HangKind::kComputationError;
    event.faulty_ranks.assign(report.faulty_ranks.begin(),
                              report.faulty_ranks.end());
    event.streak = report.suspicion_streak;
    event.q = report.q;
    event.required_streak = report.required_streak;
    event.interval = report.interval;
    sink->on_event(std::move(event));
    obs::DetectionEvent detection;
    detection.time = report.detected_at;
    detection.detector = label();
    detection.kind = detector_kind_name(kind());
    sink->on_event(detection);
  }
  Detection detection;
  detection.detected_at = report.detected_at;
  detection.kind = DetectorKind::kParastack;
  record_detection(detection);
  if (on_hang) on_hang(hang_reports_.back());
}

}  // namespace parastack::core
