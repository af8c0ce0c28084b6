#include "assembled.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/detector_bank.hpp"
#include "core/monitor_network.hpp"
#include "core/monitor_substrate.hpp"
#include "core/recovery.hpp"
#include "faults/injector.hpp"
#include "obs/perf.hpp"
#include "recover/policy.hpp"
#include "sched/scheduler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

namespace ps = parastack;
using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t ns_between(Clock::time_point begin, Clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

/// Cost of one clock read, measured once. A span's two reads add about one
/// read's worth of time to it, which is taken off again so the wrappers'
/// own reads do not count as the wrapped layer's work.
std::uint64_t clock_read_ns() {
  static const std::uint64_t cost = [] {
    std::uint64_t best = ~std::uint64_t{0};
    for (int i = 0; i < 1000; ++i) {
      const auto a = Clock::now();
      best = std::min(best, ns_between(a, Clock::now()));
    }
    return best;
  }();
  return cost;
}

std::uint64_t ns_since(Clock::time_point begin) {
  const std::uint64_t span = ns_between(begin, Clock::now());
  return span > clock_read_ns() ? span - clock_read_ns() : 0;
}

/// Only one Program::next call in kActionSample is timed, and its time
/// scaled up: the calls are short and many, and timing each one would
/// double the cost of the layer it measures.
constexpr std::uint64_t kActionSample = 8;

/// Times the actions the workload generator hands to the ranks.
class TimedProgram final : public ps::simmpi::Program {
 public:
  TimedProgram(std::unique_ptr<ps::simmpi::Program> inner, LayerTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  ps::simmpi::Action next() override {
    if (times_.actions++ % kActionSample != 0) return inner_->next();
    const auto begin = Clock::now();
    ps::simmpi::Action action = inner_->next();
    times_.workloads_ns += kActionSample * ns_since(begin);
    return action;
  }

 private:
  std::unique_ptr<ps::simmpi::Program> inner_;
  LayerTimes& times_;
};

ps::simmpi::ProgramFactory timed_factory(ps::simmpi::ProgramFactory inner,
                                         LayerTimes& times) {
  return [inner = std::move(inner), &times](ps::simmpi::Rank rank, int nranks,
                                            ps::util::Rng rng) {
    return std::unique_ptr<ps::simmpi::Program>(
        std::make_unique<TimedProgram>(inner(rank, nranks, rng), times));
  };
}

/// The production substrate with its sampling-path trace timed.
class TimedSubstrate final : public ps::core::MonitorSubstrate {
 public:
  TimedSubstrate(ps::simmpi::World& world, ps::trace::StackInspector& inspector,
                 LayerTimes& times)
      : inner_(world, inspector), times_(times) {}

  int nranks() const override { return inner_.nranks(); }
  int nnodes() const override { return inner_.nnodes(); }
  int node_of(ps::simmpi::Rank rank) const override {
    return inner_.node_of(rank);
  }
  ps::sim::Engine& engine() override { return inner_.engine(); }
  ps::sim::Time network_latency() const override {
    return inner_.network_latency();
  }
  bool trace_out_mpi(ps::simmpi::Rank rank) override {
    const auto begin = Clock::now();
    const bool out = inner_.trace_out_mpi(rank);
    times_.trace_ns += ns_since(begin);
    return out;
  }

 private:
  ps::core::WorldSubstrate inner_;
  LayerTimes& times_;
};

/// Mirrors the runner's cross-attempt plumbing (null = single attempt).
struct Attempt {
  std::uint64_t seed = 0;
  ps::sim::Time start_time = 0;
  bool inject_fault = true;
  const ps::simmpi::WorldSnapshot* resume = nullptr;
  ps::sim::Time checkpoint_interval = 0;
  ps::sim::Time checkpoint_cost = 0;
  std::vector<ps::simmpi::WorldSnapshot> checkpoints;
  ps::simmpi::WorldSnapshot at_kill;
  bool killed = false;
  ps::sim::Time kill_time = 0;
  bool degraded_kill = false;
  ps::core::DetectorKind kill_kind = ps::core::DetectorKind::kParastack;
  std::vector<ps::simmpi::Rank> faulty_ranks;
};

ps::harness::RunResult run_attempt(const ps::harness::RunConfig& config,
                                   Attempt* ctx, LayerTimes& times,
                                   CommCounts& comm) {
  const auto entry = Clock::now();
  ps::util::Rng rng(ctx == nullptr ? config.seed : ctx->seed);

  const std::string input =
      config.input.empty()
          ? ps::workloads::default_input(config.bench, config.nranks)
          : config.input;
  const auto profile =
      ps::workloads::make_profile(config.bench, input, config.nranks);

  ps::harness::RunResult result;
  result.estimated_clean =
      ps::harness::estimate_clean_runtime(*profile, config.platform,
                                          config.nranks);
  result.walltime = config.walltime_override.value_or(
      static_cast<ps::sim::Time>(static_cast<double>(result.estimated_clean) *
                                 config.walltime_factor));

  ps::faults::FaultPlan plan;
  plan.type = config.fault;
  if (ctx != nullptr && !ctx->inject_fault) {
    plan.type = ps::faults::FaultType::kNone;
  }
  if (plan.type != ps::faults::FaultType::kNone) {
    plan.victim = static_cast<ps::simmpi::Rank>(
        rng.uniform_int(static_cast<std::uint64_t>(config.nranks)));
    double lo;
    double hi;
    if (config.fault_trigger_lo && config.fault_trigger_hi) {
      lo = static_cast<double>(*config.fault_trigger_lo);
      hi = static_cast<double>(*config.fault_trigger_hi);
    } else {
      lo = std::max(static_cast<double>(config.min_fault_time),
                    config.fault_window_lo *
                        static_cast<double>(result.estimated_clean));
      hi = std::max(lo + 1e9, config.fault_window_hi *
                                  static_cast<double>(result.estimated_clean));
    }
    plan.trigger_time = static_cast<ps::sim::Time>(rng.uniform(lo, hi));
    if (ctx != nullptr) plan.trigger_time += ctx->start_time;
  }
  ps::faults::FaultInjector injector(plan);

  ps::simmpi::WorldConfig world_config;
  world_config.nranks = config.nranks;
  world_config.platform = config.platform;
  world_config.seed = rng.next();
  world_config.background_slowdowns = config.background_slowdowns;
  if (ctx != nullptr) {
    world_config.start_time = ctx->start_time;
    if (ctx->resume != nullptr && !ctx->resume->empty()) {
      world_config.replay_actions = ctx->resume->rank_actions;
    }
  }
  ps::simmpi::World world(
      world_config,
      injector.wrap(timed_factory(ps::workloads::make_factory(profile),
                                  times)));
  world.engine().set_perf(config.perf);
  injector.arm(world);

  ps::trace::StackInspector::Config inspector_config;
  inspector_config.seed = rng.next();
  if (config.trace_cost_override) {
    inspector_config.trace_cost_mean = *config.trace_cost_override;
  }
  ps::trace::StackInspector inspector(world, inspector_config);
  TimedSubstrate substrate(world, inspector, times);

  bool killed = false;
  ps::sim::Time kill_time = 0;

  ps::core::DetectorBank bank;
  std::unique_ptr<ps::core::MonitorNetwork> monitors;
  ps::core::HangDetector* primary = nullptr;
  for (const ps::harness::DetectorSpec& spec : config.detectors) {
    PS_CHECK(spec.kind == ps::core::DetectorKind::kParastack,
             "the assembled trial supports ParaStack detectors only");
    auto det_config = spec.parastack;
    det_config.seed = rng.next();
    auto parastack =
        std::make_unique<ps::core::HangDetector>(world, inspector, det_config);
    PS_CHECK(config.use_monitor_network,
             "the assembled trial routes samples through the monitors");
    if (!monitors) {
      monitors = std::make_unique<ps::core::MonitorNetwork>(substrate);
    }
    parastack->use_monitor_network(monitors.get());
    if (primary == nullptr) primary = parastack.get();
    if (!spec.label.empty()) parastack->set_label(spec.label);
    bank.add(std::move(parastack));
  }
  if (config.kill_on_detection && !bank.empty()) {
    bank.at(0).on_detection = [&](const ps::core::Detection& detection) {
      killed = true;
      kill_time = detection.detected_at;
    };
  }
  if (monitors && config.monitor_tree.tree()) {
    ps::core::TopologyConfig tree = config.monitor_tree;
    if (tree.seed == 0) {
      std::uint64_t state = config.seed ^ 0x7472656553656564ull;  // "treeSeed"
      tree.seed = ps::util::splitmix64(state);
    }
    monitors->set_topology(tree);
  }
  if (monitors && config.tool_faults.active()) {
    ps::faults::ToolFaultPlan tool_plan = config.tool_faults;
    if (tool_plan.seed == 0) tool_plan.seed = rng.next();
    monitors->set_tool_faults(tool_plan);
  }

  world.start();
  bank.start_all();
  auto& engine = world.engine();

  std::function<void()> take_checkpoint;
  if (ctx != nullptr && ctx->checkpoint_interval > 0) {
    take_checkpoint = [&] {
      if (world.all_finished() || killed) return;
      ctx->checkpoints.push_back(world.snapshot_progress());
      if (ctx->checkpoint_cost > 0) {
        for (int r = 0; r < config.nranks; ++r) {
          world.rank(static_cast<ps::simmpi::Rank>(r))
              .add_suspension(ctx->checkpoint_cost);
        }
      }
      engine.schedule_after(ctx->checkpoint_interval,
                            [&] { take_checkpoint(); });
    };
    engine.schedule_after(ctx->checkpoint_interval,
                          [&] { take_checkpoint(); });
  }

  times.harness_setup_ns += ns_since(entry);
  while (!world.all_finished() && !killed && engine.now() <= result.walltime) {
    if (!engine.step()) break;
  }
  bank.stop_all();

  if (ctx != nullptr) {
    ctx->killed = killed;
    if (killed) {
      ctx->kill_time = kill_time;
      ctx->at_kill = world.snapshot_progress();
      ctx->kill_kind = config.detectors.front().kind;
      ctx->degraded_kill = primary != nullptr && primary->degraded();
      if (primary != nullptr && !primary->hang_reports().empty()) {
        ctx->faulty_ranks = primary->hang_reports().back().faulty_ranks;
      }
    }
  }

  result.completed = world.all_finished();
  if (result.completed) result.finish_time = world.finish_time();
  result.end_time = result.completed ? *result.finish_time
                    : killed         ? kill_time
                                     : result.walltime;
  result.fault = injector.record();

  bool summarized = false;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const auto& parastack =
        static_cast<const ps::core::HangDetector&>(bank.at(i));
    ps::harness::DetectorRunResult det;
    det.label = parastack.label();
    det.kind = parastack.kind();
    det.detections = parastack.detections();
    det.hang_reports = parastack.hang_reports();
    det.slowdown_reports = parastack.slowdown_reports();
    if (!summarized) {
      summarized = true;
      result.final_interval = parastack.interval();
      result.interval_doublings = parastack.interval_doublings();
      result.model_samples = parastack.model().size();
      result.degraded_entries = parastack.degraded_entries();
    }
    result.detectors.push_back(std::move(det));
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
  comm.matches += world.comm().matches();
  comm.sends_posted += world.comm().sends_posted();
  comm.collectives += world.comm().collectives_entered();

  world.engine().set_perf(nullptr);
  return result;
}

}  // namespace

ps::harness::RunResult run_assembled(const ps::harness::RunConfig& config,
                                     LayerTimes& times, CommCounts& comm) {
  PS_CHECK(config.telemetry == nullptr && !config.degraded_fallback_timeout,
           "the assembled trial runs without sinks or fallback detectors");
  if (!config.recovery.active()) {
    return run_attempt(config, nullptr, times, comm);
  }

  // The runner's multi-attempt driver, minus telemetry.
  const ps::recover::RecoverySpec& spec = config.recovery;
  const std::unique_ptr<ps::core::RecoveryAction> policy =
      ps::recover::make_policy(spec);
  PS_CHECK(policy != nullptr, "active recovery spec produced no policy");
  ps::obs::perf::Counter* perf_attempts = nullptr;
  ps::obs::perf::Counter* perf_restores = nullptr;
  ps::obs::perf::Counter* perf_give_ups = nullptr;
  ps::obs::perf::Counter* perf_checkpoints = nullptr;
  if (config.perf != nullptr) {
    perf_attempts = config.perf->counter("recover.attempts");
    perf_restores = config.perf->counter("recover.restores");
    perf_give_ups = config.perf->counter("recover.give_ups");
    perf_checkpoints = config.perf->counter("recover.checkpoints");
  }
  ps::sched::JobLifecycle lifecycle(spec.max_restarts);

  ps::harness::RunResult result;
  ps::harness::RunResult total;  // per-attempt sums
  std::vector<ps::harness::AttemptRecord> attempts;
  std::vector<ps::harness::DetectorRunResult> merged;
  ps::faults::FaultRecord fault_record;
  bool fault_recorded = false;
  ps::simmpi::WorldSnapshot resume;
  ps::simmpi::WorldSnapshot last_checkpoint;
  ps::sim::Time offset = 0;

  ps::harness::RecoverySummary summary;
  summary.enabled = true;
  summary.policy = spec.policy;
  summary.su_multiplier = policy->su_multiplier();

  for (int attempt = 0;; ++attempt) {
    Attempt ctx;
    if (attempt == 0) {
      ctx.seed = config.seed;
    } else {
      std::uint64_t state = config.seed ^ 0x7265636f76657279ull ^  // "recovery"
                            static_cast<std::uint64_t>(attempt);
      ctx.seed = ps::util::splitmix64(state);
    }
    ctx.start_time = offset;
    ctx.inject_fault = attempt == 0 || attempt <= spec.refault_attempts;
    ctx.resume = resume.empty() ? nullptr : &resume;
    ctx.checkpoint_interval = policy->checkpoint_interval();
    ctx.checkpoint_cost = policy->checkpoint_cost();

    if (attempt == 0) lifecycle.launch(0);
    PS_PERF_ADD(perf_attempts, 1);

    ps::harness::RunResult r = run_attempt(config, &ctx, times, comm);

    ps::harness::AttemptRecord record;
    record.attempt = attempt;
    record.seed = ctx.seed;
    record.start_time = ctx.start_time;
    record.end_time = r.end_time;
    record.completed = r.completed;
    record.killed = ctx.killed;
    record.resumed_from = resume.taken_at;
    attempts.push_back(std::move(record));

    for (const auto& det : r.detectors) {
      auto into = std::find_if(merged.begin(), merged.end(), [&](const auto& m) {
        return m.label == det.label && m.kind == det.kind;
      });
      if (into == merged.end()) {
        merged.push_back(det);
      } else {
        into->detections.insert(into->detections.end(), det.detections.begin(),
                                det.detections.end());
        into->hang_reports.insert(into->hang_reports.end(),
                                  det.hang_reports.begin(),
                                  det.hang_reports.end());
        into->slowdown_reports.insert(into->slowdown_reports.end(),
                                      det.slowdown_reports.begin(),
                                      det.slowdown_reports.end());
      }
    }
    total.traces += r.traces;
    total.trace_cost += r.trace_cost;
    total.monitor_crashes += r.monitor_crashes;
    total.lead_failovers += r.lead_failovers;
    total.partials_lost += r.partials_lost;
    total.sample_retries += r.sample_retries;
    total.subtree_failovers += r.subtree_failovers;
    total.root_messages += r.root_messages;
    total.tree_hops += r.tree_hops;
    total.max_monitor_fan_in =
        std::max(total.max_monitor_fan_in, r.max_monitor_fan_in);
    total.degraded_entries += r.degraded_entries;
    if (attempt == 0 || (!fault_recorded && r.fault.activated())) {
      fault_record = r.fault;
      fault_recorded = r.fault.activated();
    }
    if (!ctx.checkpoints.empty()) {
      last_checkpoint = ctx.checkpoints.back();
      summary.checkpoints_taken += ctx.checkpoints.size();
      PS_PERF_ADD(perf_checkpoints, ctx.checkpoints.size());
    }

    if (r.completed) {
      lifecycle.complete(*r.finish_time);
      summary.recovered = attempt > 0;
      result = std::move(r);
      break;
    }
    if (!ctx.killed) {
      lifecycle.expire(r.end_time);
      result = std::move(r);
      break;
    }

    ps::core::RecoveryVerdict verdict;
    verdict.killed_at = ctx.kill_time;
    verdict.kind = ctx.kill_kind;
    verdict.degraded = ctx.degraded_kill;
    verdict.faulty_ranks = ctx.faulty_ranks;
    verdict.attempt = attempt;
    lifecycle.suspect(ctx.kill_time);
    lifecycle.kill(ctx.kill_time);

    ps::core::RecoveryDecision decision;
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
    if (offset + ps::sim::kSecond >= r.walltime) {
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
  result.traces = total.traces;
  result.trace_cost = total.trace_cost;
  result.monitor_crashes = total.monitor_crashes;
  result.lead_failovers = total.lead_failovers;
  result.partials_lost = total.partials_lost;
  result.sample_retries = total.sample_retries;
  result.subtree_failovers = total.subtree_failovers;
  result.root_messages = total.root_messages;
  result.tree_hops = total.tree_hops;
  result.max_monitor_fan_in = total.max_monitor_fan_in;
  result.degraded_entries = total.degraded_entries;
  return result;
}

}  // namespace perfbench
