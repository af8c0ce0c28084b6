#pragma once

#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/detector_base.hpp"
#include "core/model.hpp"
#include "core/monitor_network.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "sim/time.hpp"
#include "simmpi/world.hpp"
#include "trace/inspector.hpp"
#include "util/rng.hpp"

namespace parastack::obs::perf {
class Counter;
class Timer;
}  // namespace parastack::obs::perf

namespace parastack::core {

struct SlowdownEvidence;  // core/slowdown_filter.hpp

/// ParaStack's hang detector (paper §3) — the orchestrator over the
/// pipeline stages in core/pipeline.hpp:
///
///   ScroutSampler -> IntervalTuner -> SuspicionJudge -> TransientFilter
///                                                         -> FaultyIdentifier
///
/// Samples S_crout — the OUT_MPI fraction of C randomly chosen monitored
/// ranks — at randomized intervals r_step = rand(I) + I/2, tunes I with the
/// runs test until sampling is statistically random, maintains the robust
/// ECDF model (ScroutModel), and reports a hang at confidence 1 - alpha
/// after ceil(log_q alpha) consecutive suspicions. Before reporting it runs
/// the transient-slowdown filter (§3.3) and, on a confirmed hang, the
/// faulty-process identification sweeps (§4). The stages hold the state;
/// this class owns the schedule, the telemetry, and the state machine that
/// sequences them.
class HangDetector final : public Detector {
 public:
  HangDetector(simmpi::World& world, trace::StackInspector& inspector,
               DetectorConfig config);

  /// Route S_crout measurements through a per-node monitor network (§3.3's
  /// active/idle monitor topology) instead of direct inspector calls. The
  /// observable values are identical; the network additionally accounts
  /// tool-internal traffic. Must outlive the detector. Optional.
  void use_monitor_network(MonitorNetwork* network) noexcept {
    sampler_.use_monitor_network(network);
  }

  /// Begin monitoring (schedules the first sample).
  void start() override;
  /// Stop monitoring (job finished / killed).
  void stop() noexcept override { stopped_ = true; }
  DetectorKind kind() const noexcept override {
    return DetectorKind::kParastack;
  }

  /// Invoked exactly once when a hang is verified (e.g. by the scheduler
  /// integration to kill the job). The base class's on_detection fires
  /// first with the unified Detection record.
  std::function<void(const HangReport&)> on_hang;
  std::function<void(const SlowdownReport&)> on_slowdown;
  /// Degraded-mode transitions (tool-fault model): invoked with `true` when
  /// monitor coverage has been below quorum for the configured number of
  /// consecutive samples, `false` when coverage recovers. The harness uses
  /// the entry transition to start a fallback TimeoutDetector.
  std::function<void(bool entered)> on_degraded;

  /// §6 "Applications with multiple phases": an instrumented application
  /// (or its launcher) may announce phase changes; the detector then keeps
  /// one model — with its own interval tuning — per phase, switching as the
  /// application does. A phase change observed mid-verification is treated
  /// as progress: the pending hang candidate is discarded.
  void notify_phase_change(int phase_id);
  int current_phase() const noexcept { return judge_.current_phase(); }

  bool hang_reported() const noexcept { return !hang_reports_.empty(); }
  const std::vector<HangReport>& hang_reports() const noexcept {
    return hang_reports_;
  }
  const std::vector<SlowdownReport>& slowdown_reports() const noexcept {
    return slowdown_reports_;
  }

  // --- Introspection (tests, benches, Figure 4) ---------------------------
  sim::Time interval() const noexcept { return tuner_.interval(); }
  bool randomness_confirmed() const noexcept {
    return tuner_.randomness_confirmed();
  }
  std::size_t interval_doublings() const noexcept { return tuner_.doublings(); }
  const ScroutModel& model() const noexcept { return judge_.model(); }
  ScroutModel::Decision current_decision() const { return judge_.decision(); }
  std::size_t observations() const noexcept { return sampler_.observations(); }
  std::size_t streak() const noexcept { return judge_.streak(); }
  int active_set() const noexcept { return sampler_.active_set(); }
  const std::vector<simmpi::Rank>& monitor_set(int index) const {
    return sampler_.monitor_set(index);
  }
  const DetectorConfig& config() const noexcept { return config_; }
  /// True while the §3.3/§4 verification sweeps are in flight.
  bool verifying() const noexcept { return state_ == State::kVerifying; }
  /// Degraded-mode introspection (tool-fault model).
  bool degraded() const noexcept { return judge_.degraded_mode(); }
  std::size_t degraded_entries() const noexcept { return degraded_entries_; }

 private:
  enum class State { kIdle, kSampling, kVerifying, kDone };

  /// Cached perf handles for one pipeline stage (null when the engine has
  /// no ProfileRegistry attached): an invocation counter (deterministic)
  /// and a wall-clock stage timer (advisory).
  struct StagePerf {
    obs::perf::Counter* calls = nullptr;
    obs::perf::Timer* timer = nullptr;
  };

  void schedule_next_sample();
  void take_sample();
  sim::Time verification_gap() const;
  void begin_verification();
  void continue_filter();
  std::vector<trace::StackSnapshot> sweep_all_ranks();
  void conclude_slowdown(const SlowdownEvidence& evidence);
  void faulty_sweep_round();
  void report_hang();

  simmpi::World& world_;
  trace::StackInspector& inspector_;
  DetectorConfig config_;
  util::Rng rng_;

  ScroutSampler sampler_;
  IntervalTuner tuner_;
  SuspicionJudge judge_;
  TransientFilter filter_;
  FaultyIdentifier identifier_;

  State state_ = State::kIdle;
  bool stopped_ = false;
  std::size_t degraded_entries_ = 0;
  std::vector<HangReport> hang_reports_;
  std::vector<SlowdownReport> slowdown_reports_;

  // Per-stage perf instrumentation (resolved once at construction).
  StagePerf perf_sampler_;
  StagePerf perf_tuner_;
  StagePerf perf_judge_;
  StagePerf perf_filter_;
  StagePerf perf_identifier_;

  // Detection-latency milestones for the current/most recent streak.
  sim::Time streak_started_at_ = -1;
  sim::Time confirmed_at_ = -1;
};

}  // namespace parastack::core
