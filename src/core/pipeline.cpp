#include "core/pipeline.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/faulty_id.hpp"
#include "obs/telemetry.hpp"
#include "stats/runs_test.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace parastack::core {

// --- ScroutSampler ---------------------------------------------------------

ScroutSampler::ScroutSampler(simmpi::World& world,
                             trace::StackInspector& inspector,
                             const DetectorConfig& config, util::Rng& rng)
    : world_(world), inspector_(inspector), config_(config), rng_(rng) {
  choose_monitor_sets();
}

void ScroutSampler::choose_monitor_sets() {
  // Two disjoint random process sets (§3.3 corner-case defence). If the job
  // is smaller than 2C, split what is available.
  const int nranks = world_.nranks();
  std::vector<simmpi::Rank> all(static_cast<std::size_t>(nranks));
  std::iota(all.begin(), all.end(), 0);
  // Fisher-Yates with the detector's deterministic RNG.
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng_.uniform_int(i)]);
  }
  const int per_set = std::max(1, std::min(kMonitoredCount, nranks / 2));
  sets_[0].assign(all.begin(), all.begin() + per_set);
  sets_[1].assign(all.begin() + per_set, all.begin() + 2 * per_set);
}

const std::vector<simmpi::Rank>& ScroutSampler::monitor_set(int index) const {
  PS_CHECK(index == 0 || index == 1, "two monitor sets exist");
  return sets_[index];
}

ScroutSampler::Sample ScroutSampler::measure_qualified() {
  const auto& set = sets_[active_set_];
  Sample sample;
  if (monitors_ != nullptr) {
    const auto measurement = monitors_->measure(set);
    sample.scrout = measurement.scrout;
    sample.coverage = measurement.coverage;
    sample.degraded = measurement.degraded;
    sample.partials_missing = measurement.partials_missing;
    return sample;
  }
  int out = 0;
  for (const simmpi::Rank r : set) {
    // Allocation-free sweep: identical RNG draw and suspension charge as
    // trace(), minus the frame strings nobody reads here.
    if (inspector_.trace_out_mpi(r)) ++out;
  }
  sample.scrout = static_cast<double>(out) / static_cast<double>(set.size());
  return sample;
}

sim::Time ScroutSampler::next_delay(sim::Time interval) {
  const double step = rng_.uniform(0.5, 1.5) * static_cast<double>(interval);
  return static_cast<sim::Time>(step);
}

bool ScroutSampler::count_observation(std::size_t required_dwell) {
  ++observations_;
  ++observations_since_switch_;
  if (!config_.enable_set_alternation ||
      observations_since_switch_ < required_dwell) {
    return false;
  }
  active_set_ ^= 1;
  observations_since_switch_ = 0;
  return true;
}

// --- IntervalTuner ---------------------------------------------------------

IntervalTuner::IntervalTuner(const DetectorConfig& config) : config_(config) {
  PS_CHECK(config_.initial_interval > 0, "I must be positive");
  state_.interval = config_.initial_interval;
}

void IntervalTuner::reset() {
  state_ = State{};
  state_.interval = config_.initial_interval;
}

void IntervalTuner::on_model_sample(ScroutModel& model,
                                    obs::TelemetrySink* sink, sim::Time now,
                                    std::string_view label) {
  if (state_.randomness_confirmed || !config_.enable_interval_tuning) return;
  if (++state_.samples_since_runs_test < kRunsTestBatch) return;
  state_.samples_since_runs_test = 0;
  const auto result = stats::runs_test(model.ecdf().samples());
  if (sink != nullptr) {
    obs::RunsTestEvent event;
    event.time = now;
    event.detector = label;
    event.sample_size = model.size();
    event.runs = result.runs;
    event.n_pos = result.n_pos;
    event.n_neg = result.n_neg;
    event.random = result.random;
    sink->on_event(event);
  }
  if (result.random) {
    state_.randomness_confirmed = true;
    util::debug_log("runs test passed at n=%zu; sampling confirmed random",
                    model.size());
    return;
  }
  const bool capped = state_.interval * 2 > kMaxInterval;
  if (capped) {
    // The paper does not bound the doubling; we cap it so a pathologically
    // regular waveform cannot disable detection outright.
    util::log(util::LogLevel::kWarn, "parastack",
              "interval cap reached; proceeding without confirmed randomness");
    state_.randomness_confirmed = true;
    if (sink != nullptr) {
      obs::IntervalEvent event;
      event.time = now;
      event.detector = label;
      event.old_interval = state_.interval;
      event.new_interval = state_.interval;
      event.doublings = state_.doublings;
      event.capped = true;
      sink->on_event(event);
    }
    return;
  }
  const sim::Time old_interval = state_.interval;
  state_.interval *= 2;
  ++state_.doublings;
  model.thin_half();  // history now approximates samples at the doubled I
  util::debug_log("runs test rejected randomness; I doubled to %.0fms (x%zu)",
                  sim::to_millis(state_.interval), state_.doublings);
  if (sink != nullptr) {
    obs::IntervalEvent event;
    event.time = now;
    event.detector = label;
    event.old_interval = old_interval;
    event.new_interval = state_.interval;
    event.doublings = state_.doublings;
    event.capped = false;
    sink->on_event(event);
  }
}

// --- SuspicionJudge --------------------------------------------------------

SuspicionJudge::Verdict SuspicionJudge::judge(double sample,
                                              bool randomness_confirmed,
                                              double coverage) {
  Verdict verdict;
  verdict.decision = model_.decision(config_.alpha);
  verdict.required = verdict.decision.k;

  // Tool-health bookkeeping first: degraded mode is about the monitoring
  // substrate, independent of what the (possibly blind) value says.
  const bool below_quorum = coverage < kCoverageQuorum;
  if (below_quorum) {
    ++low_coverage_run_;
    if (!degraded_ && low_coverage_run_ >= kDegradedModeAfter) {
      degraded_ = true;
      verdict.entered_degraded = true;
    }
  } else {
    low_coverage_run_ = 0;
    if (degraded_) {
      degraded_ = false;
      verdict.exited_degraded = true;
    }
  }
  // A zero-coverage sample cannot distinguish a hung application from a
  // blind tool: it neither advances nor ends the streak.
  if (coverage <= 0.0) return verdict;

  // Detection waits for BOTH readiness gates (paper §3.2: "ParaStack needs
  // to accumulate at least n_m',0.3 *random* samples").
  if (verdict.decision.ready && randomness_confirmed) {
    if (sample <= verdict.decision.threshold + 1e-12) {
      verdict.suspicious = true;
      ++streak_;
      if (below_quorum) ++streak_low_samples_;
      // Below-quorum evidence is weaker: the streak must run past k by the
      // surcharge before verification starts.
      verdict.required =
          verdict.decision.k +
          (streak_low_samples_ > 0 ? kLowCoverageExtraStreak : 0);
      verdict.verify = streak_ >= verdict.required;
    } else {
      verdict.ended_streak = streak_;
      streak_ = 0;
      streak_low_samples_ = 0;
    }
  }
  return verdict;
}

std::size_t SuspicionJudge::reset_streak() noexcept {
  streak_low_samples_ = 0;
  return std::exchange(streak_, 0);
}

bool SuspicionJudge::switch_phase(int phase_id, IntervalTuner& tuner) {
  PS_CHECK(phase_id != current_phase_, "switch_phase to the current phase");
  // Save the learned state of the outgoing phase.
  PhaseState outgoing;
  outgoing.model = std::move(model_);
  outgoing.tuning = tuner.state();
  stash_[current_phase_] = std::move(outgoing);
  current_phase_ = phase_id;

  // Restore (or initialize) the incoming phase's state.
  if (const auto it = stash_.find(phase_id); it != stash_.end()) {
    model_ = std::move(it->second.model);
    tuner.restore(it->second.tuning);
    stash_.erase(it);
    return true;
  }
  model_.clear();
  tuner.reset();
  return false;
}

// --- TransientFilter -------------------------------------------------------

void TransientFilter::begin(std::vector<trace::StackSnapshot> first_round) {
  rounds_done_ = 1;
  previous_ = std::move(first_round);
}

TransientFilter::Check TransientFilter::check(
    std::vector<trace::StackSnapshot> round) {
  Check result;
  if (is_transient_slowdown(previous_, round, &result.evidence)) {
    result.outcome = Outcome::kSlowdown;
    return result;
  }
  ++rounds_done_;
  if (rounds_done_ >= kRounds) {
    result.outcome = Outcome::kHangConfirmed;
    return result;
  }
  previous_ = std::move(round);
  result.outcome = Outcome::kRetry;
  return result;
}

// --- FaultyIdentifier ------------------------------------------------------

bool FaultyIdentifier::add_sweep(std::vector<trace::StackSnapshot> sweep) {
  sweeps_.push_back(std::move(sweep));
  return sweeps_.size() >= static_cast<std::size_t>(kChecks);
}

std::vector<simmpi::Rank> FaultyIdentifier::identify() const {
  return identify_faulty_ranks(sweeps_);
}

}  // namespace parastack::core
