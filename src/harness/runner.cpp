#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/detector_bank.hpp"
#include "core/monitor_network.hpp"
#include "core/recovery.hpp"
#include "faults/injector.hpp"
#include "obs/perf.hpp"
#include "recover/policy.hpp"
#include "sched/scheduler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::harness {

DetectorSpec DetectorSpec::make_parastack(core::DetectorConfig config) {
  DetectorSpec spec;
  spec.kind = core::DetectorKind::kParastack;
  spec.parastack = config;
  return spec;
}

DetectorSpec DetectorSpec::make_timeout(core::TimeoutDetector::Config config) {
  DetectorSpec spec;
  spec.kind = core::DetectorKind::kTimeout;
  spec.timeout = config;
  return spec;
}

DetectorSpec DetectorSpec::make_io_watchdog(core::IoWatchdog::Config config) {
  DetectorSpec spec;
  spec.kind = core::DetectorKind::kIoWatchdog;
  spec.io_watchdog = config;
  return spec;
}

bool RunConfig::with(core::DetectorKind kind) const {
  return find(kind) != nullptr;
}

const DetectorSpec* RunConfig::find(core::DetectorKind kind) const {
  for (const auto& spec : detectors) {
    if (spec.kind == kind) return &spec;
  }
  return nullptr;
}

DetectorSpec* RunConfig::find(core::DetectorKind kind) {
  for (auto& spec : detectors) {
    if (spec.kind == kind) return &spec;
  }
  return nullptr;
}

DetectorSpec& RunConfig::spec(core::DetectorKind kind) {
  if (DetectorSpec* existing = find(kind)) return *existing;
  DetectorSpec added;
  added.kind = kind;
  detectors.push_back(std::move(added));
  return detectors.back();
}

core::DetectorConfig& RunConfig::parastack_config() {
  return spec(core::DetectorKind::kParastack).parastack;
}

core::TimeoutDetector::Config& RunConfig::timeout_config() {
  return spec(core::DetectorKind::kTimeout).timeout;
}

core::IoWatchdog::Config& RunConfig::io_watchdog_config() {
  return spec(core::DetectorKind::kIoWatchdog).io_watchdog;
}

const DetectorRunResult* RunResult::detector(core::DetectorKind kind) const {
  for (const auto& entry : detectors) {
    if (entry.kind == kind) return &entry;
  }
  return nullptr;
}

DetectorRunResult& RunResult::detector_entry(core::DetectorKind kind) {
  for (auto& entry : detectors) {
    if (entry.kind == kind) return entry;
  }
  DetectorRunResult entry;
  entry.kind = kind;
  entry.label = std::string(core::detector_kind_name(kind));
  detectors.push_back(std::move(entry));
  return detectors.back();
}

namespace {
const std::vector<core::HangReport> kNoHangs;
const std::vector<core::SlowdownReport> kNoSlowdowns;
const std::vector<core::Detection> kNoDetections;
}  // namespace

const std::vector<core::HangReport>& RunResult::hangs() const {
  const DetectorRunResult* entry = detector(core::DetectorKind::kParastack);
  return entry == nullptr ? kNoHangs : entry->hang_reports;
}

const std::vector<core::SlowdownReport>& RunResult::slowdowns() const {
  const DetectorRunResult* entry = detector(core::DetectorKind::kParastack);
  return entry == nullptr ? kNoSlowdowns : entry->slowdown_reports;
}

const std::vector<core::Detection>& RunResult::timeout_reports() const {
  const DetectorRunResult* entry = detector(core::DetectorKind::kTimeout);
  return entry == nullptr ? kNoDetections : entry->detections;
}

std::optional<sim::Time> RunResult::first_parastack_detection() const {
  if (hangs().empty()) return std::nullopt;
  return hangs().front().detected_at;
}

std::optional<sim::Time> RunResult::first_timeout_detection() const {
  if (timeout_reports().empty()) return std::nullopt;
  return timeout_reports().front().detected_at;
}

bool RunResult::detection_before_fault(sim::Time detection) const {
  if (fault.type == faults::FaultType::kNone) return true;
  if (fault.type == faults::FaultType::kTransientSlowdown) return true;
  return !fault.activated() || detection < fault.activated_at;
}

const core::HangReport* RunResult::first_hang_after_fault() const {
  if (fault.type == faults::FaultType::kNone ||
      fault.type == faults::FaultType::kTransientSlowdown ||
      !fault.activated()) {
    return nullptr;
  }
  for (const auto& report : hangs()) {
    if (report.detected_at >= fault.activated_at) return &report;
  }
  return nullptr;
}

const core::Detection* RunResult::first_timeout_after_fault() const {
  if (fault.type == faults::FaultType::kNone ||
      fault.type == faults::FaultType::kTransientSlowdown ||
      !fault.activated()) {
    return nullptr;
  }
  for (const auto& detection : timeout_reports()) {
    if (detection.detected_at >= fault.activated_at) return &detection;
  }
  return nullptr;
}

double RunResult::response_delay_seconds() const {
  const core::HangReport* report = first_hang_after_fault();
  PS_CHECK(report != nullptr,
           "response delay needs a detected, activated fault");
  return sim::to_seconds(report->detected_at - fault.activated_at);
}

sim::Time estimate_clean_runtime(const workloads::BenchmarkProfile& profile,
                                 const sim::Platform& platform, int nranks) {
  const double ratio = static_cast<double>(profile.reference_ranks) /
                       static_cast<double>(nranks);
  const double compute_factor =
      std::pow(ratio, profile.compute_scaling_exp) * platform.compute_scale;
  const int pipeline_stride = std::max(1, nranks / profile.reference_ranks);
  const int pipeline_hops = nranks / pipeline_stride;
  double per_iter = 0.0;
  for (const auto& phase : profile.phases) {
    double mean = static_cast<double>(phase.compute_mean);
    if (phase.decays) mean /= 2.5;  // floored quadratic decay average
    const double scaled =
        mean * (phase.class_invariant
                    ? std::pow(ratio, profile.compute_scaling_exp) *
                          platform.compute_scale
                    : compute_factor);
    per_iter += scaled;
    // Pipeline sweeps serialize a whole chain of stages per iteration.
    if (phase.comm == workloads::CommPattern::kPipelineSend ||
        phase.comm == workloads::CommPattern::kPipelineSendBack) {
      per_iter += static_cast<double>(pipeline_hops - 1) *
                  (scaled + 1.0e4 /*per-hop message+call overhead, ns*/);
    }
    // Big synchronizing transposes are runtime, not slack.
    if (phase.comm == workloads::CommPattern::kAlltoall &&
        phase.every == 1) {
      const double bytes = static_cast<double>(phase.bytes) *
                           std::min(std::pow(ratio, 2.0), 8.0);
      const double gbytes_per_s = platform.network_bandwidth_gbps * 0.125;
      per_iter += bytes * static_cast<double>(nranks - 1) / gbytes_per_s;
    }
  }
  const double total = static_cast<double>(profile.setup_time) +
                       per_iter * static_cast<double>(profile.iterations);
  // Residual communication / straggler margin.
  return static_cast<sim::Time>(total * 1.15);
}

namespace {

/// One attempt of a job: what the driver hands in and what the attempt
/// hands back. A run without recovery is a single attempt under the job
/// seed, from t = 0, with the fault injected and no checkpoints.
struct AttemptContext {
  // Driver -> attempt:
  int attempt = 0;
  std::uint64_t seed = 0;
  sim::Time start_time = 0;      ///< absolute job-timeline start
  bool inject_fault = true;      ///< false: this attempt outlives the fault
  const simmpi::WorldSnapshot* resume = nullptr;  ///< null = cold start
  sim::Time checkpoint_interval = 0;              ///< 0 = no checkpoints
  sim::Time checkpoint_cost = 0;
  bool emit_run_start = false;
  // Attempt -> driver:
  std::vector<simmpi::WorldSnapshot> checkpoints;
  simmpi::WorldSnapshot at_kill;  ///< progress at the kill instant
  bool killed = false;
  sim::Time kill_time = 0;
  bool degraded_kill = false;
  core::DetectorKind kill_kind = core::DetectorKind::kParastack;
  std::vector<simmpi::Rank> faulty_ranks;
  sim::Time end_now = 0;  ///< engine clock when the attempt wound down
};

RunResult run_attempt(const RunConfig& config, AttemptContext& ctx) {
  util::Rng rng(ctx.seed);

  const std::string input =
      config.input.empty()
          ? workloads::default_input(config.bench, config.nranks)
          : config.input;
  const auto profile = workloads::make_profile(config.bench, input,
                                               config.nranks);

  RunResult result;
  result.estimated_clean =
      estimate_clean_runtime(*profile, config.platform, config.nranks);
  result.walltime = config.walltime_override.value_or(static_cast<sim::Time>(
      static_cast<double>(result.estimated_clean) * config.walltime_factor));

  // Fault plan.
  faults::FaultPlan plan;
  plan.type = config.fault;
  if (!ctx.inject_fault) plan.type = faults::FaultType::kNone;
  if (plan.type != faults::FaultType::kNone) {
    plan.victim =
        static_cast<simmpi::Rank>(rng.uniform_int(
            static_cast<std::uint64_t>(config.nranks)));
    double lo;
    double hi;
    if (config.fault_trigger_lo && config.fault_trigger_hi) {
      lo = static_cast<double>(*config.fault_trigger_lo);
      hi = static_cast<double>(*config.fault_trigger_hi);
    } else {
      lo = std::max(
          static_cast<double>(config.min_fault_time),
          config.fault_window_lo *
              static_cast<double>(result.estimated_clean));
      hi = std::max(lo + 1e9,
                    config.fault_window_hi *
                        static_cast<double>(result.estimated_clean));
    }
    plan.trigger_time = static_cast<sim::Time>(rng.uniform(lo, hi));
    // A refault strikes at the same relative position on the restarted
    // attempt's own stretch of the job timeline.
    plan.trigger_time += ctx.start_time;
  }
  faults::FaultInjector injector(plan);

  simmpi::WorldConfig world_config;
  world_config.nranks = config.nranks;
  world_config.platform = config.platform;
  world_config.seed = rng.next();
  world_config.background_slowdowns = config.background_slowdowns;
  world_config.start_time = ctx.start_time;
  if (ctx.resume != nullptr && !ctx.resume->empty()) {
    world_config.replay_actions = ctx.resume->rank_actions;
  }
  simmpi::World world(world_config,
                      injector.wrap(workloads::make_factory(profile)));
  world.engine().set_telemetry(config.telemetry);
  world.engine().set_perf(config.perf);
  injector.arm(world);

  trace::StackInspector::Config inspector_config;
  inspector_config.seed = rng.next();
  if (config.trace_cost_override) {
    inspector_config.trace_cost_mean = *config.trace_cost_override;
  }
  trace::StackInspector inspector(world, inspector_config);

  bool killed = false;
  sim::Time kill_time = 0;
  bool kill_from_fallback = false;

  // Per-detector seeds are drawn in spec order so a fixed prefix of the
  // detector list always receives the same stream regardless of what is
  // appended after it.
  core::DetectorBank bank;
  std::unique_ptr<core::MonitorNetwork> monitors;
  core::HangDetector* primary_parastack = nullptr;
  for (const DetectorSpec& spec : config.detectors) {
    std::unique_ptr<core::Detector> detector;
    switch (spec.kind) {
      case core::DetectorKind::kParastack: {
        auto det_config = spec.parastack;
        det_config.seed = rng.next();
        auto parastack = std::make_unique<core::HangDetector>(
            world, inspector, det_config);
        if (config.use_monitor_network) {
          if (!monitors) {
            monitors = std::make_unique<core::MonitorNetwork>(world,
                                                              inspector);
          }
          parastack->use_monitor_network(monitors.get());
        }
        if (primary_parastack == nullptr) primary_parastack = parastack.get();
        detector = std::move(parastack);
        break;
      }
      case core::DetectorKind::kTimeout: {
        auto base_config = spec.timeout;
        base_config.seed = rng.next();
        detector = std::make_unique<core::TimeoutDetector>(world, inspector,
                                                           base_config);
        break;
      }
      case core::DetectorKind::kIoWatchdog: {
        detector = std::make_unique<core::IoWatchdog>(world,
                                                      spec.io_watchdog);
        break;
      }
    }
    PS_CHECK(detector != nullptr, "unknown detector kind");
    if (!spec.label.empty()) detector->set_label(spec.label);
    bank.add(std::move(detector));
  }

  if (config.kill_on_detection && !bank.empty()) {
    bank.at(0).on_detection = [&](const core::Detection& detection) {
      killed = true;
      kill_time = detection.detected_at;
    };
  }

  // Aggregation topology: the star, or a k-ary tree. A tree with seed 0
  // derives its placement seed from the run seed by hashing (NOT by drawing
  // rng.next()): arming the tree must not shift the streams of anything
  // constructed later — that is what lets a tree run be compared against
  // its star twin.
  if (monitors) {
    core::TopologyConfig topology = config.monitor_tree;
    if (topology.tree() && topology.seed == 0) {
      std::uint64_t state = config.seed ^ 0x7472656553656564ull;  // "treeSeed"
      topology.seed = util::splitmix64(state);
    }
    monitors->set_topology(topology);
  }

  // Tool-fault plan: the plan seed is drawn from the run RNG only for an
  // active plan, so no other component's draws move.
  if (monitors && config.tool_faults.active()) {
    faults::ToolFaultPlan tool_plan = config.tool_faults;
    if (tool_plan.seed == 0) tool_plan.seed = rng.next();
    monitors->set_tool_faults(tool_plan);
  }

  // Degraded-mode fallback: a plain TimeoutDetector held in reserve and
  // started the first time the primary ParaStack instance loses quorum for
  // long enough — a hang striking while the tool is blind still ends the
  // job eventually. Owned outside the bank: it is not part of the run's
  // detector roster unless it was actually requested.
  std::unique_ptr<core::TimeoutDetector> fallback;
  if (config.degraded_fallback_timeout && primary_parastack != nullptr) {
    core::TimeoutDetector::Config fallback_config;
    fallback_config.seed = rng.next();
    fallback = std::make_unique<core::TimeoutDetector>(world, inspector,
                                                       fallback_config);
    fallback->set_label("timeout-fallback");
    if (config.kill_on_detection) {
      fallback->on_detection = [&](const core::Detection& detection) {
        if (!killed) {
          killed = true;
          kill_time = detection.detected_at;
          kill_from_fallback = true;
        }
      };
    }
    primary_parastack->on_degraded = [detector = fallback.get(),
                                      started = false](bool entered) mutable {
      if (entered && !started) {
        started = true;
        detector->start();
      }
    };
  }

  if (config.telemetry != nullptr && ctx.emit_run_start) {
    obs::RunStartEvent event;
    event.bench = workloads::bench_name(config.bench);
    event.input = input;
    event.nranks = config.nranks;
    event.nnodes = world.nnodes();
    event.platform = config.platform.name;
    event.seed = config.seed;
    event.run_index = config.run_index;
    event.estimated_clean = result.estimated_clean;
    event.walltime = result.walltime;
    event.fault_planned = faults::fault_type_name(config.fault);
    config.telemetry->on_event(event);
  }

  world.start();
  bank.start_all();

  auto& engine = world.engine();

  // Periodic coordinated checkpoints (recovery policies that roll back).
  // Scheduling is RNG-free; each capture charges every progressing rank the
  // checkpoint cost through the same suspension mechanism ptrace stops use
  // (blocked ranks were waiting anyway, DESIGN.md decision #5).
  std::function<void()> take_checkpoint;
  if (ctx.checkpoint_interval > 0) {
    take_checkpoint = [&] {
      if (world.all_finished() || killed) return;
      ctx.checkpoints.push_back(world.snapshot_progress());
      if (ctx.checkpoint_cost > 0) {
        for (int r = 0; r < config.nranks; ++r) {
          world.rank(static_cast<simmpi::Rank>(r))
              .add_suspension(ctx.checkpoint_cost);
        }
      }
      engine.schedule_after(ctx.checkpoint_interval,
                            [&] { take_checkpoint(); });
    };
    engine.schedule_after(ctx.checkpoint_interval,
                          [&] { take_checkpoint(); });
  }

  while (!world.all_finished() && !killed && engine.now() <= result.walltime) {
    if (!engine.step()) break;
  }

  bank.stop_all();
  if (fallback) fallback->stop();

  ctx.killed = killed;
  if (killed) {
    ctx.kill_time = kill_time;
    ctx.at_kill = world.snapshot_progress();
    ctx.kill_kind = config.detectors.empty()
                        ? core::DetectorKind::kParastack
                        : config.detectors.front().kind;
    if (kill_from_fallback) ctx.kill_kind = core::DetectorKind::kTimeout;
    ctx.degraded_kill =
        kill_from_fallback ||
        (primary_parastack != nullptr && primary_parastack->degraded());
    if (primary_parastack != nullptr &&
        !primary_parastack->hang_reports().empty()) {
      ctx.faulty_ranks = primary_parastack->hang_reports().back().faulty_ranks;
    }
  }

  result.completed = world.all_finished();
  if (result.completed) result.finish_time = world.finish_time();
  // A job that neither finished nor got killed sits hung until its slot
  // expires — the whole allocation is billed (paper §2).
  result.end_time = result.completed ? *result.finish_time
                    : killed         ? kill_time
                                     : result.walltime;
  result.fault = injector.record();

  bool parastack_summarized = false;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const core::Detector& detector = bank.at(i);
    DetectorRunResult entry;
    entry.label = detector.label();
    entry.kind = detector.kind();
    entry.detections = detector.detections();
    if (detector.kind() == core::DetectorKind::kParastack) {
      const auto& parastack =
          static_cast<const core::HangDetector&>(detector);
      entry.hang_reports = parastack.hang_reports();
      entry.slowdown_reports = parastack.slowdown_reports();
      if (!parastack_summarized) {
        parastack_summarized = true;
        result.final_interval = parastack.interval();
        result.interval_doublings = parastack.interval_doublings();
        result.model_samples = parastack.model().size();
        result.degraded_entries = parastack.degraded_entries();
      }
    }
    result.detectors.push_back(std::move(entry));
  }
  if (fallback) {
    DetectorRunResult entry;
    entry.label = fallback->label();
    entry.kind = fallback->kind();
    entry.detections = fallback->detections();
    result.detectors.push_back(std::move(entry));
  }
  if (monitors) {
    result.monitor_crashes = monitors->monitor_crashes();
    result.lead_failovers = monitors->lead_failovers();
    result.partials_lost = monitors->partials_lost();
    result.sample_retries = monitors->retransmissions();
    result.subtree_failovers = monitors->subtree_failovers();
    result.root_messages = monitors->root_messages();
    result.tree_hops = monitors->tree_hops();
    result.max_monitor_fan_in = monitors->max_fan_in();
  }
  result.traces = inspector.traces();
  result.trace_cost = inspector.total_cost_charged();

  if (profile->flops_per_iteration > 0.0 && result.completed) {
    const double flops = profile->flops_per_iteration *
                         static_cast<double>(profile->iterations) *
                         static_cast<double>(config.nranks);
    result.gflops = flops / sim::to_seconds(*result.finish_time) / 1e9;
  }

  // Detection-latency breakdown for the first genuine (post-fault) hang:
  // emitted at end of run, before run_end, so the journal's time order
  // holds. Each leg is skipped if its opening milestone is unknown or the
  // milestones are out of order (e.g. a streak that began before the fault).
  if (config.telemetry != nullptr) {
    if (const core::HangReport* hang = result.first_hang_after_fault();
        hang != nullptr) {
      const DetectorRunResult* entry =
          result.detector(core::DetectorKind::kParastack);
      const std::string_view label = entry == nullptr
                                         ? std::string_view("parastack")
                                         : std::string_view(entry->label);
      const sim::Time fault_at = result.fault.activated_at;
      const auto emit_span = [&](std::string_view span, sim::Time begin,
                                 sim::Time end) {
        if (begin < 0 || end < begin) return;
        obs::DetectionSpanEvent event;
        event.time = engine.now();
        event.detector = label;
        event.span = span;
        event.begin = begin;
        event.end = end;
        event.run_index = config.run_index;
        config.telemetry->on_event(event);
      };
      emit_span("fault-to-suspicion", fault_at, hang->first_suspicion_at);
      emit_span("suspicion-to-confirm", hang->first_suspicion_at,
                hang->confirmed_at);
      emit_span("confirm-to-kill", hang->confirmed_at, hang->detected_at);
      emit_span("fault-to-kill", fault_at, hang->detected_at);
    }
  }

  // A job gets ONE run_end, emitted by run_one after its final attempt.
  ctx.end_now = engine.now();
  // Invariant probe (pscheck): audit run internals while the world is
  // still alive — the engine and comm ledgers die with this frame.
  if (config.post_run_probe) config.post_run_probe(world, result);
  // The engine (and its telemetry pointer) dies with this frame; detach so
  // nothing dangles if the caller keeps the world alive via captures.
  world.engine().set_telemetry(nullptr);
  world.engine().set_perf(nullptr);
  return result;
}

/// The job's run_end, after its final attempt: `result` holds the counts
/// summed over every attempt.
void emit_run_end(const RunConfig& config, const RunResult& result,
                  sim::Time now, bool killed) {
  if (config.telemetry == nullptr) return;
  obs::RunEndEvent event;
  event.time = now;
  event.run_index = config.run_index;
  event.completed = result.completed;
  event.killed = killed && !result.completed;
  event.finish_time = result.finish_time.value_or(-1);
  event.end_time = result.end_time;
  event.traces = result.traces;
  event.trace_cost = result.trace_cost;
  event.hangs = static_cast<int>(result.hangs().size());
  event.slowdowns = static_cast<int>(result.slowdowns().size());
  event.model_samples = result.model_samples;
  event.final_interval = result.final_interval;
  config.telemetry->on_event(event);
}

}  // namespace

RunResult run_one(const RunConfig& config) {
  if (!config.recovery.active()) {
    // One attempt under the job seed; `attempts` stays empty and the
    // recovery summary disabled.
    AttemptContext ctx;
    ctx.seed = config.seed;
    ctx.emit_run_start = true;
    RunResult result = run_attempt(config, ctx);
    emit_run_end(config, result, ctx.end_now, ctx.killed);
    return result;
  }

  const recover::RecoverySpec& spec = config.recovery;
  const std::unique_ptr<core::RecoveryAction> policy =
      recover::make_policy(spec);
  PS_CHECK(policy != nullptr, "active recovery spec produced no policy");

  obs::perf::Counter* perf_attempts = nullptr;
  obs::perf::Counter* perf_restores = nullptr;
  obs::perf::Counter* perf_give_ups = nullptr;
  obs::perf::Counter* perf_checkpoints = nullptr;
  if (config.perf != nullptr) {
    perf_attempts = config.perf->counter("recover.attempts");
    perf_restores = config.perf->counter("recover.restores");
    perf_give_ups = config.perf->counter("recover.give_ups");
    perf_checkpoints = config.perf->counter("recover.checkpoints");
  }

  sched::JobLifecycle lifecycle(spec.max_restarts);

  RunResult result;
  std::vector<AttemptRecord> attempts;
  std::vector<DetectorRunResult> merged;
  std::uint64_t traces = 0;
  sim::Time trace_cost = 0;
  std::uint64_t monitor_crashes = 0;
  std::uint64_t lead_failovers = 0;
  std::uint64_t partials_lost = 0;
  std::uint64_t sample_retries = 0;
  std::uint64_t subtree_failovers = 0;
  std::uint64_t root_messages = 0;
  std::uint64_t tree_hops = 0;
  int max_fan_in = 0;
  std::size_t degraded_entries = 0;
  faults::FaultRecord fault_record;
  bool fault_recorded = false;

  simmpi::WorldSnapshot resume;           // what the next attempt replays
  simmpi::WorldSnapshot last_checkpoint;  // latest periodic capture seen
  sim::Time offset = 0;                   // next attempt's start instant
  sim::Time first_kill_time = -1;
  sim::Time first_restore_start = -1;
  bool final_killed = false;
  sim::Time final_now = 0;

  RecoverySummary summary;
  summary.enabled = true;
  summary.policy = spec.policy;
  summary.su_multiplier = policy->su_multiplier();

  for (int attempt = 0;; ++attempt) {
    AttemptContext ctx;
    ctx.attempt = attempt;
    if (attempt == 0) {
      // Attempt 0 runs under the job seed exactly: a recovery-armed run
      // whose fault never fires is the same simulation it always was.
      ctx.seed = config.seed;
    } else {
      std::uint64_t state = config.seed ^ 0x7265636f76657279ull ^  // "recovery"
                            static_cast<std::uint64_t>(attempt);
      ctx.seed = util::splitmix64(state);
    }
    ctx.start_time = offset;
    ctx.inject_fault = attempt == 0 || attempt <= spec.refault_attempts;
    ctx.resume = resume.empty() ? nullptr : &resume;
    ctx.checkpoint_interval = policy->checkpoint_interval();
    ctx.checkpoint_cost = policy->checkpoint_cost();
    ctx.emit_run_start = attempt == 0;

    if (attempt == 0) lifecycle.launch(0);
    PS_PERF_ADD(perf_attempts, 1);

    RunResult r = run_attempt(config, ctx);

    AttemptRecord record;
    record.attempt = attempt;
    record.seed = ctx.seed;
    record.start_time = ctx.start_time;
    record.end_time = r.end_time;
    record.completed = r.completed;
    record.killed = ctx.killed;
    record.resumed_from = resume.taken_at;
    attempts.push_back(std::move(record));

    // Merge the attempt's detector streams so the cumulative accessors
    // (hangs(), detections) describe the whole job, matching the single
    // run_end the driver emits below.
    for (const auto& entry : r.detectors) {
      DetectorRunResult* into = nullptr;
      for (auto& m : merged) {
        if (m.label == entry.label && m.kind == entry.kind) {
          into = &m;
          break;
        }
      }
      if (into == nullptr) {
        merged.push_back(entry);
      } else {
        into->detections.insert(into->detections.end(),
                                entry.detections.begin(),
                                entry.detections.end());
        into->hang_reports.insert(into->hang_reports.end(),
                                  entry.hang_reports.begin(),
                                  entry.hang_reports.end());
        into->slowdown_reports.insert(into->slowdown_reports.end(),
                                      entry.slowdown_reports.begin(),
                                      entry.slowdown_reports.end());
      }
    }
    traces += r.traces;
    trace_cost += r.trace_cost;
    monitor_crashes += r.monitor_crashes;
    lead_failovers += r.lead_failovers;
    partials_lost += r.partials_lost;
    sample_retries += r.sample_retries;
    subtree_failovers += r.subtree_failovers;
    root_messages += r.root_messages;
    tree_hops += r.tree_hops;
    max_fan_in = std::max(max_fan_in, r.max_monitor_fan_in);
    degraded_entries += r.degraded_entries;
    if (attempt == 0 || (!fault_recorded && r.fault.activated())) {
      fault_record = r.fault;
      fault_recorded = r.fault.activated();
    }

    if (!ctx.checkpoints.empty()) {
      last_checkpoint = ctx.checkpoints.back();
      summary.checkpoints_taken += ctx.checkpoints.size();
      PS_PERF_ADD(perf_checkpoints, ctx.checkpoints.size());
    }

    final_now = ctx.end_now;
    final_killed = ctx.killed;

    if (r.completed) {
      lifecycle.complete(*r.finish_time);
      summary.recovered = attempt > 0;
      result = std::move(r);
      break;
    }
    if (!ctx.killed) {
      // Slot exhausted with no kill: terminal for the whole job — there is
      // no walltime left to restart into.
      lifecycle.expire(r.end_time);
      result = std::move(r);
      break;
    }

    if (first_kill_time < 0) first_kill_time = ctx.kill_time;

    core::RecoveryVerdict verdict;
    verdict.killed_at = ctx.kill_time;
    verdict.kind = ctx.kill_kind;
    verdict.degraded = ctx.degraded_kill;
    verdict.faulty_ranks = ctx.faulty_ranks;
    verdict.attempt = attempt;

    lifecycle.suspect(ctx.kill_time);
    lifecycle.kill(ctx.kill_time);

    core::RecoveryDecision decision;
    bool giving_up = !lifecycle.try_restore(ctx.kill_time);
    if (giving_up) {
      decision.detail = "restart budget exhausted";
    } else {
      decision = policy->on_kill(
          verdict, last_checkpoint.empty() ? nullptr : &last_checkpoint,
          ctx.at_kill);
      if (!decision.restart) {
        giving_up = true;
        lifecycle.give_up(ctx.kill_time);
      }
    }
    attempts.back().recovery_detail = decision.detail;

    if (config.telemetry != nullptr) {
      obs::RecoveryEvent event;
      event.time = ctx.kill_time;
      event.policy = policy->policy_name();
      event.action = giving_up ? "give-up" : "restore";
      event.attempt = attempt + 1;
      event.degraded = verdict.degraded;
      event.resume_from = decision.resume.taken_at;
      event.overhead = decision.overhead;
      event.next_start = ctx.kill_time + decision.overhead;
      event.run_index = config.run_index;
      event.detail = decision.detail;
      config.telemetry->on_event(std::move(event));
    }

    if (giving_up) {
      PS_PERF_ADD(perf_give_ups, 1);
      summary.gave_up = true;
      result = std::move(r);
      break;
    }

    PS_PERF_ADD(perf_restores, 1);
    summary.overhead_total += decision.overhead;
    resume = std::move(decision.resume);
    offset = ctx.kill_time + decision.overhead;
    if (first_restore_start < 0) first_restore_start = offset;
    if (offset + sim::kSecond >= r.walltime) {
      // The restore outlived the allocation (or left under a second of
      // slot): there is nothing to resume into, so the job expires
      // mid-restore rather than launching a dead attempt past walltime.
      // The job's billable end is the walltime expiry the lifecycle just
      // recorded — not the kill instant the last attempt stopped at
      // (attempts.back().end_time still holds that).
      lifecycle.expire(r.walltime);
      r.end_time = r.walltime;
      result = std::move(r);
      break;
    }
    lifecycle.resume(offset);
  }

  result.attempts = std::move(attempts);
  summary.attempts_used = static_cast<int>(result.attempts.size());
  result.recovery = summary;
  result.fault = fault_record;
  result.detectors = std::move(merged);
  result.traces = traces;
  result.trace_cost = trace_cost;
  result.monitor_crashes = monitor_crashes;
  result.lead_failovers = lead_failovers;
  result.partials_lost = partials_lost;
  result.sample_retries = sample_retries;
  result.subtree_failovers = subtree_failovers;
  result.root_messages = root_messages;
  result.tree_hops = tree_hops;
  result.max_monitor_fan_in = max_fan_in;
  result.degraded_entries = degraded_entries;

  if (config.telemetry != nullptr) {
    // Recovery spans: fault -> detect -> restore -> done, the end-to-end
    // legs the bench sweeps aggregate (emitted before run_end so the
    // journal's time order holds).
    const auto emit_span = [&](std::string_view span, sim::Time begin,
                               sim::Time end) {
      if (begin < 0 || end < begin) return;
      obs::DetectionSpanEvent event;
      event.time = final_now;
      event.detector = "recovery";
      event.span = span;
      event.begin = begin;
      event.end = end;
      event.run_index = config.run_index;
      config.telemetry->on_event(event);
    };
    if (summary.recovered) {
      emit_span("kill-to-restore", first_kill_time, first_restore_start);
      emit_span("restore-to-done", first_restore_start, result.end_time);
      if (fault_record.activated()) {
        emit_span("fault-to-done", fault_record.activated_at, result.end_time);
      }
    }
  }
  emit_run_end(config, result, final_now, final_killed);
  return result;
}

}  // namespace parastack::harness
