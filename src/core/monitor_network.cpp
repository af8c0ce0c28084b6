#include "core/monitor_network.hpp"

#include <algorithm>
#include <bit>

#include "obs/perf.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace parastack::core {

MonitorNetwork::MonitorNetwork(simmpi::World& world,
                               trace::StackInspector& inspector)
    : owned_(std::in_place, world, inspector), sub_(*owned_) {
  init();
}

MonitorNetwork::MonitorNetwork(MonitorSubstrate& substrate) : sub_(substrate) {
  init();
}

void MonitorNetwork::init() {
  topology_.build(sub_.nnodes(), TopologyConfig{});
  const auto nnodes = static_cast<std::size_t>(sub_.nnodes());
  dead_.assign(nnodes, false);
  node_mark_.assign(nnodes, false);
  fan_in_.assign(nnodes, 0);
  agg_monitors_.assign(nnodes, 0);
  agg_covered_.assign(nnodes, 0);
  agg_out_.assign(nnodes, 0);
  agg_penalty_.assign(nnodes, 0);
  if (obs::perf::ProfileRegistry* perf = sub_.engine().perf();
      perf != nullptr) {
    perf_samples_ = perf->counter("monitor.reports_aggregated");
    perf_messages_ = perf->counter("monitor.messages");
    perf_retries_ = perf->counter("monitor.retries");
    perf_failovers_ = perf->counter("monitor.lead_failovers");
    perf_crashes_ = perf->counter("monitor.crashes");
    perf_lost_ = perf->counter("monitor.partials_lost");
    perf_subtree_failovers_ = perf->counter("monitor.subtree_failovers");
    perf_root_messages_ = perf->counter("monitor.root_messages");
    perf_tree_hops_ = perf->counter("monitor.tree_hops");
    perf_fan_in_ = perf->high_water("monitor.fan_in");
  }
}

int MonitorNetwork::active_monitors_for(
    const std::vector<simmpi::Rank>& set) const {
  std::vector<int> nodes;
  nodes.reserve(set.size());
  for (const auto rank : set) nodes.push_back(sub_.node_of(rank));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return static_cast<int>(nodes.size());
}

void MonitorNetwork::collect_carriers() {
  carriers_.clear();
  for (const int node : active_nodes_) {
    if (!monitor_alive(node)) continue;
    int at = node;
    while (!node_mark_.test(static_cast<std::size_t>(at))) {
      node_mark_.set(static_cast<std::size_t>(at));
      carriers_.push_back(at);
      const int parent = topology_.parent(at);
      if (parent < 0) break;
      at = parent;
    }
  }
  // Deepest level first, ascending node id within a level: the order the
  // aggregation (and its per-hop RNG draws) proceeds in.
  std::sort(carriers_.begin(), carriers_.end(), [this](int a, int b) {
    const int la = topology_.level(a);
    const int lb = topology_.level(b);
    if (la != lb) return la > lb;
    return a < b;
  });
  for (const int c : carriers_) {
    const int parent = topology_.parent(c);
    if (parent >= 0) ++fan_in_[static_cast<std::size_t>(parent)];
  }
}

sim::Time MonitorNetwork::tree_gather_latency(int levels, sim::Time now) {
  // One local round even when everything sits on the root's node (or no
  // partial can arrive): the floor of one binomial round.
  if (carriers_.size() <= 1 || levels <= 0) {
    return sub_.network_latency();
  }
  level_max_fan_in_.assign(static_cast<std::size_t>(levels), 0);
  level_senders_.assign(static_cast<std::size_t>(levels), 0);
  int widest = 0;
  for (const int c : carriers_) {
    const int level = topology_.level(c);
    const int fan = fan_in_[static_cast<std::size_t>(c)];
    widest = std::max(widest, fan);
    if (fan > 0 && level < levels) {
      auto& slot = level_max_fan_in_[static_cast<std::size_t>(level)];
      slot = std::max(slot, fan);
    }
    if (level > 0) ++level_senders_[static_cast<std::size_t>(level - 1)];
  }
  max_fan_in_ = std::max(max_fan_in_, widest);
  PS_PERF_OBSERVE(perf_fan_in_, static_cast<std::uint64_t>(widest));
  obs::TelemetrySink* sink = sub_.engine().telemetry();
  sim::Time total = 0;
  for (int receiver_level = levels - 1; receiver_level >= 0; --receiver_level) {
    const int fan = std::max(
        level_max_fan_in_[static_cast<std::size_t>(receiver_level)], 1);
    const sim::Time gather =
        static_cast<sim::Time>(std::bit_width(static_cast<unsigned>(fan))) *
        sub_.network_latency();
    total += gather;
    if (sink != nullptr) {
      obs::MonitorLevelEvent event;
      event.time = now;
      event.level = receiver_level + 1;
      event.senders = level_senders_[static_cast<std::size_t>(receiver_level)];
      event.max_fan_in =
          level_max_fan_in_[static_cast<std::size_t>(receiver_level)];
      event.latency = gather;
      sink->on_event(event);
    }
  }
  return total;
}

bool MonitorNetwork::monitor_alive(int node) const {
  return node >= 0 && node < static_cast<int>(dead_.size()) &&
         !dead_.test(static_cast<std::size_t>(node));
}

void MonitorNetwork::set_topology(const TopologyConfig& config) {
  PS_CHECK(samples_ == 0,
           "set_topology must be called before the first sample");
  PS_CHECK(!plan_.active(),
           "set_topology must be called before set_tool_faults");
  topology_.build(sub_.nnodes(), config);
}

void MonitorNetwork::set_tool_faults(const faults::ToolFaultPlan& plan) {
  PS_CHECK(samples_ == 0,
           "set_tool_faults must be called before the first sample");
  plan_ = plan;
  tool_rng_ = util::Rng(plan.seed);
  // Resolve random victims now, in plan order, so the crash pattern is a
  // pure function of the plan seed (not of sampling timing). The current
  // root is never a random victim (lead_crash_at targets it explicitly).
  crash_schedule_.clear();
  std::vector<int> candidates;  // non-root monitors still unassigned
  for (int node = 0; node < sub_.nnodes(); ++node) {
    if (node != topology_.root()) candidates.push_back(node);
  }
  for (const auto& crash : plan.monitor_crashes) {
    faults::MonitorCrash resolved = crash;
    if (resolved.monitor < 0) {
      if (candidates.empty()) continue;  // no non-root monitor left to kill
      const auto pick = static_cast<std::size_t>(
          tool_rng_.uniform_int(static_cast<std::uint64_t>(candidates.size())));
      resolved.monitor = candidates[pick];
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    PS_CHECK(resolved.monitor < sub_.nnodes(),
             "monitor crash victim out of range");
    crash_schedule_.push_back(resolved);
  }
  std::stable_sort(crash_schedule_.begin(), crash_schedule_.end(),
                   [](const faults::MonitorCrash& a,
                      const faults::MonitorCrash& b) { return a.at < b.at; });
  next_crash_ = 0;
  lead_crash_applied_ = false;
}

void MonitorNetwork::crash_monitor(int node, sim::Time at) {
  if (!monitor_alive(node)) return;  // already dead (or none left): no-op
  dead_.set(static_cast<std::size_t>(node));
  ++crashes_;
  PS_PERF_ADD(perf_crashes_, 1);
  obs::TelemetrySink* sink = sub_.engine().telemetry();
  if (sink != nullptr) {
    obs::MonitorCrashEvent event;
    event.time = at;
    event.monitor = node;
    event.was_lead = node == topology_.root();
    event.alive = sub_.nnodes() - static_cast<int>(dead_.count());
    sink->on_event(event);
  }

  // Drop the node out of the topology. A dead root fails over to its
  // promoted child (in the star, the lowest surviving monitor id); a dead
  // interior monitor promotes its lowest surviving child, which adopts the
  // siblings — either way the subtree re-registers, charged to the next
  // sample.
  const auto removal = topology_.remove(node);
  if (removal.root_changed) {
    ++failovers_;
    PS_PERF_ADD(perf_failovers_, 1);
    pending_reregistration_ += kReregistrationLatency;
    if (sink != nullptr) {
      obs::LeadFailoverEvent event;
      event.time = at;
      event.from = node;
      event.to = removal.new_root;
      event.reregistration_latency = kReregistrationLatency;
      sink->on_event(event);
    }
  } else if (removal.promoted >= 0) {
    ++subtree_failovers_;
    PS_PERF_ADD(perf_subtree_failovers_, 1);
    pending_reregistration_ += kReregistrationLatency;
    if (sink != nullptr) {
      obs::TreeFailoverEvent event;
      event.time = at;
      event.failed = node;
      event.promoted = removal.promoted;
      event.parent = topology_.parent(removal.promoted);
      event.adopted = removal.adopted;
      event.reregistration_latency = kReregistrationLatency;
      sink->on_event(event);
    }
  }
}

void MonitorNetwork::advance_tool_state(sim::Time now) {
  // Crashes apply lazily, at the first sample past their scheduled instant —
  // so their telemetry is stamped `now` (when the tool observes the death),
  // not the scheduled time. Other sinks may already have logged events
  // between the schedule and this sample; back-dating the crash would break
  // the journal's global time order.
  while (next_crash_ < crash_schedule_.size() &&
         crash_schedule_[next_crash_].at <= now) {
    crash_monitor(crash_schedule_[next_crash_].monitor, now);
    ++next_crash_;
  }
  if (!lead_crash_applied_ && plan_.lead_crash_at.has_value() &&
      *plan_.lead_crash_at <= now) {
    lead_crash_applied_ = true;
    crash_monitor(topology_.root(), now);
  }
}

MonitorNetwork::Measurement MonitorNetwork::measure(
    const std::vector<simmpi::Rank>& set) {
  PS_CHECK(!set.empty(), "cannot measure an empty monitor set");
  const sim::Time now = sub_.engine().now();
  advance_tool_state(now);

  // Trace in set order — the inspector's draw order, whatever the topology
  // or the fault plan — tallying each node's covered and OUT_MPI ranks. A
  // dead monitor traces nothing, and its partial never comes.
  Measurement measurement;
  active_nodes_.clear();
  for (const auto rank : set) {
    const int node = sub_.node_of(rank);
    const auto idx = static_cast<std::size_t>(node);
    if (!node_mark_.test(idx)) {
      node_mark_.set(idx);
      active_nodes_.push_back(node);
    }
    if (!monitor_alive(node)) continue;
    agg_monitors_[idx] = 1;
    ++agg_covered_[idx];
    if (sub_.trace_out_mpi(rank)) ++agg_out_[idx];
    ++measurement.ranks_traced;
  }
  measurement.active_monitors = static_cast<int>(active_nodes_.size());
  for (const int node : active_nodes_) {
    node_mark_.reset(static_cast<std::size_t>(node));
    if (!monitor_alive(node)) ++measurement.partials_missing;
  }

  // Hop the aggregated partials level by level toward the root — deepest
  // carriers first, ascending node id within a level; one loss/retry/delay
  // draw sequence per hop, so a lost hop drops the WHOLE subtree partial
  // it was carrying.
  collect_carriers();
  std::uint64_t sample_messages = 0;
  for (const int c : carriers_) {
    const int parent = topology_.parent(c);
    if (parent < 0) continue;  // the root does not hop
    const auto cidx = static_cast<std::size_t>(c);
    const auto pidx = static_cast<std::size_t>(parent);
    ++sample_messages;
    bool delivered = !tool_rng_.bernoulli(plan_.loss_probability);
    int attempts_retried = 0;
    sim::Time hop_penalty = 0;
    while (!delivered && attempts_retried < kMaxRetries) {
      ++attempts_retried;
      ++sample_messages;
      hop_penalty += kSampleTimeout + (kRetryBackoff << (attempts_retried - 1));
      delivered = !tool_rng_.bernoulli(plan_.loss_probability);
    }
    if (delivered && plan_.delay_mean > 0) {
      hop_penalty += static_cast<sim::Time>(
          tool_rng_.exponential(static_cast<double>(plan_.delay_mean)));
    }
    if (!delivered) {
      hop_penalty += kSampleTimeout;  // the parent's final wait
      const auto dropped = static_cast<std::uint64_t>(agg_monitors_[cidx]);
      measurement.partials_missing += agg_monitors_[cidx];
      lost_ += dropped;
      PS_PERF_ADD(perf_lost_, dropped);
    } else {
      agg_monitors_[pidx] += agg_monitors_[cidx];
      agg_covered_[pidx] += agg_covered_[cidx];
      agg_out_[pidx] += agg_out_[cidx];
    }
    agg_penalty_[pidx] =
        std::max(agg_penalty_[pidx], agg_penalty_[cidx] + hop_penalty);
    measurement.retries += attempts_retried;
    retries_total_ += static_cast<std::uint64_t>(attempts_retried);
    PS_PERF_ADD(perf_retries_, static_cast<std::uint64_t>(attempts_retried));
    if (attempts_retried > 0) {
      if (obs::TelemetrySink* sink = sub_.engine().telemetry();
          sink != nullptr) {
        obs::SampleTimeoutEvent event;
        event.time = now;
        event.monitor = c;
        event.retries = attempts_retried;
        event.recovered = delivered;
        sink->on_event(event);
      }
    }
  }

  // Read the sample at the root (the last carrier). No carriers — every
  // active monitor dead — leaves the sample blind.
  int covered = 0;
  int out_covered = 0;
  sim::Time penalty = 0;
  if (!carriers_.empty()) {
    const auto ridx = static_cast<std::size_t>(topology_.root());
    covered = agg_covered_[ridx];
    out_covered = agg_out_[ridx];
    penalty = agg_penalty_[ridx];
    measurement.root_fan_in = fan_in_[ridx];
    measurement.levels = topology_.level(carriers_.front());
  }
  measurement.coverage =
      static_cast<double>(covered) / static_cast<double>(set.size());
  measurement.degraded = covered == 0;
  measurement.scrout = covered > 0 ? static_cast<double>(out_covered) /
                                         static_cast<double>(covered)
                                   : 0.0;
  measurement.aggregation_latency =
      tree_gather_latency(measurement.levels, now) + penalty +
      pending_reregistration_;
  pending_reregistration_ = 0;
  for (const int c : carriers_) {
    const auto idx = static_cast<std::size_t>(c);
    node_mark_.reset(idx);
    fan_in_[idx] = 0;
    agg_monitors_[idx] = 0;
    agg_covered_[idx] = 0;
    agg_out_[idx] = 0;
    agg_penalty_[idx] = 0;
  }

  messages_ += sample_messages;
  bytes_ += sample_messages * 8;
  tree_hops_ += sample_messages;
  root_messages_ += static_cast<std::uint64_t>(measurement.root_fan_in);
  traced_ += static_cast<std::uint64_t>(measurement.ranks_traced);
  ++samples_;
  PS_PERF_ADD(perf_messages_, sample_messages);
  PS_PERF_ADD(perf_tree_hops_, sample_messages);
  PS_PERF_ADD(perf_root_messages_,
              static_cast<std::uint64_t>(measurement.root_fan_in));
  PS_PERF_ADD(perf_samples_, 1);
  emit_sample_event(measurement, sample_messages, sample_messages * 8);
  return measurement;
}

void MonitorNetwork::emit_sample_event(const Measurement& measurement,
                                       std::uint64_t messages,
                                       std::uint64_t bytes) {
  obs::TelemetrySink* sink = sub_.engine().telemetry();
  if (sink == nullptr) return;
  obs::MonitorSampleEvent event;
  event.time = sub_.engine().now();
  event.ranks_traced = measurement.ranks_traced;
  event.active_monitors = measurement.active_monitors;
  event.monitor_count = monitor_count();
  event.messages = messages;
  event.bytes = bytes;
  event.aggregation_latency = measurement.aggregation_latency;
  event.levels = measurement.levels;
  event.root_fan_in = measurement.root_fan_in;
  event.partials_missing = measurement.partials_missing;
  event.retries = measurement.retries;
  event.coverage = measurement.coverage;
  event.degraded = measurement.degraded;
  sink->on_event(event);
}

}  // namespace parastack::core
