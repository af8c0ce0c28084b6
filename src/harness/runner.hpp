#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/detector.hpp"
#include "core/io_watchdog.hpp"
#include "core/monitor_topology.hpp"
#include "core/report.hpp"
#include "core/timeout_detector.hpp"
#include "faults/fault.hpp"
#include "obs/telemetry.hpp"
#include "recover/spec.hpp"
#include "sim/platform.hpp"
#include "workloads/catalog.hpp"

namespace parastack::obs::perf {
class ProfileRegistry;
}

namespace parastack::harness {

/// One detector to attach to a run: which kind, its per-kind configuration,
/// and an optional telemetry label (empty = the kind's name; the bank
/// uniquifies duplicates).
struct DetectorSpec {
  core::DetectorKind kind = core::DetectorKind::kParastack;
  std::string label;
  core::DetectorConfig parastack;         ///< used when kind == kParastack
  core::TimeoutDetector::Config timeout;  ///< used when kind == kTimeout
  core::IoWatchdog::Config io_watchdog;   ///< used when kind == kIoWatchdog

  static DetectorSpec make_parastack(core::DetectorConfig config = {});
  static DetectorSpec make_timeout(core::TimeoutDetector::Config config = {});
  static DetectorSpec make_io_watchdog(core::IoWatchdog::Config config = {});
};

struct RunResult;

/// One simulated batch job: a benchmark at a scale on a platform, watched
/// by any combination of detectors (ParaStack, the fixed-timeout baseline,
/// the IO-Watchdog), optionally with one injected fault.
struct RunConfig {
  workloads::Bench bench = workloads::Bench::kLU;
  std::string input;  ///< empty = paper default for the scale (Table 2)
  int nranks = 256;
  sim::Platform platform = sim::Platform::tardis();
  std::uint64_t seed = 1;

  /// Detectors attached to the run, in attachment order. The first spec is
  /// the *primary*: when kill_on_detection is set, only its detections end
  /// the job (the others keep observing until the run ends). Per-detector
  /// seeds are drawn from the run seed in spec order, so a given list
  /// prefix always sees the same stream. Default: ParaStack alone.
  std::vector<DetectorSpec> detectors = {DetectorSpec::make_parastack()};

  /// Any spec of this kind attached?
  bool with(core::DetectorKind kind) const;
  /// First spec of this kind, or nullptr.
  const DetectorSpec* find(core::DetectorKind kind) const;
  DetectorSpec* find(core::DetectorKind kind);
  /// First spec of this kind, appending a default-configured one if absent.
  DetectorSpec& spec(core::DetectorKind kind);
  /// Find-or-add convenience for the common per-kind config tweaks.
  core::DetectorConfig& parastack_config();
  core::TimeoutDetector::Config& timeout_config();
  core::IoWatchdog::Config& io_watchdog_config();

  faults::FaultType fault = faults::FaultType::kNone;
  /// Fault trigger drawn uniformly in [lo, hi] x estimated clean runtime,
  /// but never before `min_fault_time` (the paper discards faults in the
  /// first ~20 s: the model is still building and real hangs strike the
  /// long solver phase, §7).
  double fault_window_lo = 0.15;
  double fault_window_hi = 0.75;
  sim::Time min_fault_time = 25 * sim::kSecond;
  /// Absolute trigger window override (both must be set): bench drivers
  /// that fix a wall-clock window use this instead of the relative one.
  std::optional<sim::Time> fault_trigger_lo;
  std::optional<sim::Time> fault_trigger_hi;

  /// Requested slot = walltime_factor x estimated runtime (users
  /// over-request, §2), unless overridden.
  double walltime_factor = 2.0;
  std::optional<sim::Time> walltime_override;

  bool background_slowdowns = true;
  bool kill_on_detection = true;

  /// Override the simulated per-trace ptrace cost (ablation studies).
  std::optional<sim::Time> trace_cost_override;

  /// Route S_crout samples through the per-node monitor topology so the
  /// tool's own traffic is accounted (observable values are identical).
  bool use_monitor_network = true;

  /// Aggregation topology of the monitor network. Default (fanout <= 0) is
  /// the flat star, the one-level tree under monitor 0; its level deadline
  /// caps the star's one gather. A k-ary tree with seed 0 derives its
  /// placement seed from the run seed without consuming the run's RNG
  /// stream, so a tree run and its star twin differ only in monitor-side
  /// telemetry.
  core::TopologyConfig monitor_tree;

  /// Recovery policy closing the detection loop (src/recover): what happens
  /// after kill_on_detection fires. Inert by default — with policy == kNone
  /// the run is a single attempt and consumes exactly the RNG stream and
  /// journal bytes it always did. With a policy armed, a kill becomes a
  /// restore attempt (checkpoint rollback / spare failover / replica
  /// promotion) until the job completes, the retry budget runs out, or the
  /// walltime slot expires.
  recover::RecoverySpec recovery;

  /// Tool-side fault plan (monitor crashes, partial loss, delays); empty by
  /// default. The plan seed is drawn from the run seed when left at 0 —
  /// and that draw only happens for an active plan, so faults-off runs
  /// keep their exact RNG stream. A plan that never fires changes nothing.
  faults::ToolFaultPlan tool_faults;
  /// When the primary ParaStack detector enters degraded mode (coverage
  /// below quorum for too long), start a fallback TimeoutDetector so a hang
  /// striking while the tool is blind is still eventually caught.
  bool degraded_fallback_timeout = false;

  /// Telemetry sink attached to the run's engine for its whole lifetime
  /// (journal / metrics / trace). Not owned; may be null. The runner emits
  /// run_start / run_end itself; everything else comes from the components.
  obs::TelemetrySink* telemetry = nullptr;
  /// Performance-counter registry attached to the run's engine (events
  /// scheduled/fired, pipeline-stage counts, monitor traffic). Counters are
  /// atomic, so a whole campaign may share one registry across parallel
  /// trials — the totals are order-independent. Not owned; may be null
  /// (perf accounting off, near-zero cost).
  obs::perf::ProfileRegistry* perf = nullptr;
  /// Position within a campaign (run_start/run_end correlation key).
  int run_index = 0;

  /// Invoked once after the simulation ends, before the world is torn down,
  /// with read-only access to the run's internals. This is how the pscheck
  /// invariant layer audits state that only exists inside run_one (engine
  /// clock bookkeeping, comm-engine conservation ledgers). Null = no probe.
  std::function<void(const simmpi::World&, const RunResult&)> post_run_probe;
};

/// Per-detector slice of a run: the unified detection stream every kind
/// produces, plus the typed ParaStack reports (hang verdicts, faulty-rank
/// lists, absorbed slowdowns) when the detector is a ParaStack instance.
struct DetectorRunResult {
  std::string label;
  core::DetectorKind kind = core::DetectorKind::kParastack;
  std::vector<core::Detection> detections;
  std::vector<core::HangReport> hang_reports;          ///< kParastack only
  std::vector<core::SlowdownReport> slowdown_reports;  ///< kParastack only

  bool detected() const noexcept { return !detections.empty(); }
};

/// One attempt's provenance within a multi-attempt (recovery) run.
struct AttemptRecord {
  int attempt = 0;           ///< 0-based position in the attempt sequence
  std::uint64_t seed = 0;    ///< RNG seed this attempt ran under
  sim::Time start_time = 0;  ///< absolute job-timeline start of the attempt
  sim::Time end_time = 0;    ///< kill / completion / walltime expiry
  bool completed = false;
  bool killed = false;
  /// Snapshot instant the attempt resumed from (0 = cold start).
  sim::Time resumed_from = 0;
  /// Policy detail for the kill that ended this attempt (empty otherwise).
  std::string recovery_detail;
};

/// End-of-run recovery accounting (all defaults when recovery was off).
struct RecoverySummary {
  bool enabled = false;
  recover::RecoveryPolicy policy = recover::RecoveryPolicy::kNone;
  int attempts_used = 1;
  bool recovered = false;        ///< completed on an attempt after a restore
  bool gave_up = false;          ///< retry budget or policy resources exhausted
  double su_multiplier = 1.0;    ///< allocation billing factor (team: replicas)
  sim::Time overhead_total = 0;  ///< restore/failover/arbitration time
  std::uint64_t checkpoints_taken = 0;
};

struct RunResult {
  bool completed = false;
  /// Multi-attempt semantics (recovery on): `finish_time` and `end_time`
  /// always describe the FINAL attempt — the job as the scheduler bills it.
  /// Per-attempt values live in `attempts`; `first_attempt_end_time()` is
  /// the original kill instant recovery rescued the job from. With recovery
  /// off these are exactly the single attempt's values, unchanged.
  std::optional<sim::Time> finish_time;  ///< set iff the job completed
  sim::Time end_time = 0;  ///< kill / completion / walltime expiry
  sim::Time estimated_clean = 0;
  sim::Time walltime = 0;
  faults::FaultRecord fault;
  /// One entry per attached detector, in attachment order.
  std::vector<DetectorRunResult> detectors;
  double gflops = 0.0;  ///< HPCG-style metric when the profile defines FLOPs
  std::uint64_t traces = 0;
  sim::Time trace_cost = 0;
  sim::Time final_interval = 0;
  std::size_t interval_doublings = 0;
  std::size_t model_samples = 0;
  /// Tool-fault accounting (all zero when no tool-fault plan was active).
  std::uint64_t monitor_crashes = 0;
  std::uint64_t lead_failovers = 0;
  std::uint64_t partials_lost = 0;
  std::uint64_t sample_retries = 0;
  std::size_t degraded_entries = 0;
  /// Aggregation accounting (the star has no subtree failovers).
  std::uint64_t subtree_failovers = 0;
  std::uint64_t root_messages = 0;
  std::uint64_t tree_hops = 0;
  int max_monitor_fan_in = 0;
  /// Per-attempt provenance; empty when recovery was off (single attempt).
  std::vector<AttemptRecord> attempts;
  RecoverySummary recovery;

  /// First entry of this kind, or nullptr.
  const DetectorRunResult* detector(core::DetectorKind kind) const;

  /// ParaStack hang reports from the first ParaStack entry (empty
  /// reference when none is attached).
  const std::vector<core::HangReport>& hangs() const;
  /// Absorbed-slowdown reports, same sourcing as hangs().
  const std::vector<core::SlowdownReport>& slowdowns() const;
  /// Timeout-baseline detections from the first timeout entry.
  const std::vector<core::Detection>& timeout_reports() const;

  bool parastack_detected() const noexcept { return !hangs().empty(); }
  std::optional<sim::Time> first_parastack_detection() const;
  std::optional<sim::Time> first_timeout_detection() const;
  /// A detection that fired although no hang was active at that instant.
  bool detection_before_fault(sim::Time detection) const;
  /// First ParaStack report fired at/after the injected hang activated, or
  /// nullptr when there is none (fault never activated, fault type cannot
  /// hang, or every report pre-dates the fault). A run whose first report
  /// is a pre-fault false positive can still carry a genuine detection
  /// here — campaign accounting must not stop at hangs().front().
  const core::HangReport* first_hang_after_fault() const;
  /// Timeout-baseline counterpart of first_hang_after_fault().
  const core::Detection* first_timeout_after_fault() const;
  /// Seconds from fault activation to ParaStack's first post-fault report
  /// (detected runs).
  double response_delay_seconds() const;

  /// End of the first attempt: the kill (or expiry) instant the recovery
  /// loop first intervened at. Equals end_time for single-attempt runs.
  sim::Time first_attempt_end_time() const noexcept {
    return attempts.empty() ? end_time : attempts.front().end_time;
  }
};

/// Compute-only runtime estimate used for fault windows and walltime
/// requests (communication adds a margin on top).
sim::Time estimate_clean_runtime(const workloads::BenchmarkProfile& profile,
                                 const sim::Platform& platform, int nranks);

/// Execute one simulated job to its end condition.
RunResult run_one(const RunConfig& config);

}  // namespace parastack::harness
