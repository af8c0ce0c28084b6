#pragma once

#include <cstddef>
#include <map>
#include <string_view>
#include <vector>

#include "core/model.hpp"
#include "core/monitor_network.hpp"
#include "core/slowdown_filter.hpp"
#include "sim/time.hpp"
#include "simmpi/world.hpp"
#include "trace/inspector.hpp"
#include "util/rng.hpp"

namespace parastack::obs {
class TelemetrySink;
}

namespace parastack::core {

// ---------------------------------------------------------------------------
// The ParaStack detection pipeline (paper §3–§4), one stage per class:
//
//   ScroutSampler --> IntervalTuner --> SuspicionJudge --> SlowdownFilter
//        (S_crout, r_step,   (runs test,     ((p,q) ladder,     (§3.3 sweeps)
//         set alternation)    I doubling)     geometric streak)       |
//                                                                     v
//                                                             FaultyIdentifier
//                                                                (§4 sweeps)
//
// HangDetector orchestrates these; each stage is deterministic, owns only
// its slice of the state, and is unit-testable without the others. The
// ablation benches swap or disable individual stages through their configs.
// ---------------------------------------------------------------------------

/// Stage 1 (§3.1, §3.3): measures S_crout over two disjoint random monitor
/// sets, draws the randomized sampling step r_step = rand(I) + I/2, and
/// alternates the active set after an adaptive dwell.
class ScroutSampler {
 public:
  struct Config {
    int monitored_count = 10;  ///< C: ranks per set
    bool enable_set_alternation = true;
  };

  /// Draws the Fisher-Yates shuffle for the two sets from `rng` at
  /// construction, then one uniform per next_delay() — the detector's RNG
  /// stream is owned by the orchestrator and shared by reference.
  ScroutSampler(simmpi::World& world, trace::StackInspector& inspector,
                const Config& config, util::Rng& rng);

  /// Route measurements through the per-node monitor topology (§5) instead
  /// of direct inspector calls. Observable values are identical. Optional.
  void use_monitor_network(MonitorNetwork* network) noexcept {
    monitors_ = network;
  }

  /// One coverage-qualified S_crout observation. `scrout` is computed over
  /// the ranks whose partial counts actually reached the lead monitor;
  /// `coverage` says how much of the set that was. Without a monitor
  /// network (or without tool faults) coverage is always 1.
  struct Sample {
    double scrout = 0.0;
    double coverage = 1.0;
    bool degraded = false;  ///< nothing arrived: the sample is blind
    int partials_missing = 0;
  };

  /// S_crout of the active set, with the tool-health qualifiers the
  /// monitor network attaches to the sample.
  Sample measure_qualified();

  /// r_step = rand(I) + I/2: uniform over [I/2, 3I/2], mean I (§3.1).
  sim::Time next_delay(sim::Time interval);

  /// Count one observation against the dwell; switches to the other
  /// disjoint set once `required_dwell` observations accumulated on the
  /// current one. Returns true on a switch — the caller must then reset the
  /// suspicion streak, because suspicions are only comparable within one
  /// set.
  bool count_observation(std::size_t required_dwell);

  int active_set() const noexcept { return active_set_; }
  const std::vector<simmpi::Rank>& monitor_set(int index) const;
  std::size_t observations() const noexcept { return observations_; }

 private:
  void choose_monitor_sets();

  simmpi::World& world_;
  trace::StackInspector& inspector_;
  Config config_;
  util::Rng& rng_;
  MonitorNetwork* monitors_ = nullptr;
  int active_set_ = 0;
  std::size_t observations_ = 0;
  std::size_t observations_since_switch_ = 0;
  std::vector<simmpi::Rank> sets_[2];
};

/// Stage 2 (§3.1): doubles the sampling interval I until the Wald–Wolfowitz
/// runs test accepts the S_crout series as random (or the safety cap is
/// hit), thinning the model history at each doubling.
class IntervalTuner {
 public:
  struct Config {
    sim::Time initial_interval = sim::from_millis(400);
    sim::Time max_interval = sim::from_millis(12800);
    int runs_test_batch = 16;  ///< re-test cadence until randomness holds
    bool enable = true;
  };

  /// Everything the tuner learns; stashed and restored per phase (§6).
  struct State {
    sim::Time interval = 0;
    bool randomness_confirmed = false;
    std::size_t doublings = 0;
    std::size_t samples_since_runs_test = 0;
  };

  explicit IntervalTuner(const Config& config);

  sim::Time interval() const noexcept { return state_.interval; }
  bool randomness_confirmed() const noexcept {
    return state_.randomness_confirmed;
  }
  std::size_t doublings() const noexcept { return state_.doublings; }

  State state() const { return state_; }
  void restore(const State& state) { state_ = state; }
  /// Back to a fresh phase: initial I, randomness unconfirmed.
  void reset();

  /// Feed one model-bound sample: runs the randomness test when a batch is
  /// due and doubles I (thinning `model`) when randomness is rejected.
  /// Emits runs_test/interval telemetry tagged with `label`.
  void on_model_sample(ScroutModel& model, obs::TelemetrySink* sink,
                       sim::Time now, std::string_view label);

 private:
  Config config_;
  State state_;
};

/// Stage 3 (§3.2): owns the robust ECDF model, evaluates each sample
/// against the (p,q) tolerance ladder, and advances the geometric
/// significance streak toward k = ceil(log_q alpha). Also owns the §6
/// per-phase model stash.
class SuspicionJudge {
 public:
  struct Config {
    double alpha = 0.001;
    bool freeze_model_during_streak = false;
    std::size_t model_freeze_streak = 8;
    /// Tool-health quorum: a sample whose coverage is below this fraction
    /// is "below quorum" — it still advances the streak (missing ranks are
    /// treated as IN_MPI via coverage scaling) but verification then needs
    /// `low_coverage_extra_streak` additional consecutive suspicious
    /// observations, because q^k bounds the false-alarm rate only for
    /// fully observed samples.
    double coverage_quorum = 0.55;
    std::size_t low_coverage_extra_streak = 3;
    /// After this many consecutive below-quorum samples the judge enters
    /// explicit degraded mode (journaled; the harness can start a fallback
    /// TimeoutDetector on the transition).
    std::size_t degraded_mode_after = 8;
  };

  explicit SuspicionJudge(const Config& config) : config_(config) {}

  ScroutModel& model() noexcept { return model_; }
  const ScroutModel& model() const noexcept { return model_; }
  ScroutModel::Decision decision() const {
    return model_.decision(config_.alpha);
  }
  std::size_t streak() const noexcept { return streak_; }
  int current_phase() const noexcept { return current_phase_; }

  /// Pollution guard: during a long suspicion streak new samples stop
  /// feeding the model (a hang must not inflate q past its own detection).
  bool model_frozen() const noexcept {
    return (config_.freeze_model_during_streak && streak_ > 0) ||
           streak_ >= config_.model_freeze_streak;
  }

  struct Verdict {
    ScroutModel::Decision decision;
    bool suspicious = false;       ///< counted toward the streak
    bool verify = false;           ///< streak reached k: start verification
    std::size_t ended_streak = 0;  ///< >0 when a healthy sample reset one
    /// Streak length verification actually required (k, plus the
    /// low-coverage surcharge when the streak saw below-quorum samples).
    std::size_t required = 0;
    bool entered_degraded = false;  ///< this sample tripped degraded mode
    bool exited_degraded = false;   ///< coverage recovered on this sample
  };

  /// Judge one S_crout sample. Detection is gated on BOTH the ladder being
  /// ready and the runs test having accepted the sampling as random — q^k
  /// bounds the false-alarm probability only under independent sampling.
  /// `coverage` qualifies the sample's tool health (see Config): callers
  /// pass the coverage-scaled estimate as `sample` and the raw coverage
  /// here. A zero-coverage sample carries no signal at all — it neither
  /// advances nor resets the streak, it only counts toward degraded mode.
  Verdict judge(double sample, bool randomness_confirmed,
                double coverage = 1.0);

  /// True while coverage has been below quorum for degraded_mode_after
  /// consecutive samples (and has not recovered yet).
  bool degraded_mode() const noexcept { return degraded_; }
  std::size_t consecutive_low_coverage() const noexcept {
    return low_coverage_run_;
  }

  /// End the current streak (set switch, slowdown verdict, phase change);
  /// returns the length it had.
  std::size_t reset_streak() noexcept;

  /// §6 phase switch: stash the outgoing phase's model and tuning state,
  /// restore (or freshly initialize) the incoming one's through `tuner`.
  /// Does NOT touch the streak — the orchestrator resets it with telemetry.
  /// Returns true when the incoming phase had a stashed model.
  bool switch_phase(int phase_id, IntervalTuner& tuner);

 private:
  /// Everything that is learned per phase (§6 extension).
  struct PhaseState {
    ScroutModel model;
    IntervalTuner::State tuning;
  };

  Config config_;
  ScroutModel model_;
  std::size_t streak_ = 0;
  int current_phase_ = 0;
  std::map<int, PhaseState> stash_;
  // Tool-health state (all quiescent while coverage stays at 1).
  std::size_t low_coverage_run_ = 0;    ///< consecutive below-quorum samples
  std::size_t streak_low_samples_ = 0;  ///< below-quorum samples in streak
  bool degraded_ = false;
};

/// Stage 4 (§3.3): once a streak completes, full stack-trace sweeps decide
/// hang vs transient slowdown — movement between rounds absolves, N static
/// rounds confirm.
class TransientFilter {
 public:
  struct Config {
    int rounds = 5;  ///< static rounds needed to confirm a hang
    bool enabled = true;
  };

  enum class Outcome {
    kRetry,          ///< static so far; look again after a longer gap
    kSlowdown,       ///< movement seen: transient slowdown, resume sampling
    kHangConfirmed,  ///< all rounds static: proceed to faulty-process id
  };

  struct Check {
    Outcome outcome = Outcome::kRetry;
    SlowdownEvidence evidence;  ///< set for kSlowdown
  };

  explicit TransientFilter(const Config& config) : config_(config) {}

  bool enabled() const noexcept { return config_.enabled; }
  /// Arm the filter with the first full sweep (round 1).
  void begin(std::vector<trace::StackSnapshot> first_round);
  /// Compare a later sweep against the previous round and advance.
  Check check(std::vector<trace::StackSnapshot> round);
  /// Completed static rounds (1 after begin; the slowdown verdict reports
  /// rounds_done() + 1 because the moving sweep is itself a round).
  int rounds_done() const noexcept { return rounds_done_; }

 private:
  Config config_;
  int rounds_done_ = 0;
  std::vector<trace::StackSnapshot> previous_;
};

/// Stage 5 (§4): after a confirmed hang, sweeps spaced gap() apart identify
/// the ranks persistently OUT_MPI (persistence excludes busy-wait flippers).
class FaultyIdentifier {
 public:
  struct Config {
    int checks = 5;
    sim::Time gap = sim::from_millis(50);
  };

  explicit FaultyIdentifier(const Config& config) : config_(config) {}

  void reset() { sweeps_.clear(); }
  /// Add one sweep; returns true once `checks` sweeps were collected.
  bool add_sweep(std::vector<trace::StackSnapshot> sweep);
  std::vector<simmpi::Rank> identify() const;

  int rounds() const noexcept { return static_cast<int>(sweeps_.size()); }
  sim::Time gap() const noexcept { return config_.gap; }

 private:
  Config config_;
  std::vector<std::vector<trace::StackSnapshot>> sweeps_;
};

}  // namespace parastack::core
