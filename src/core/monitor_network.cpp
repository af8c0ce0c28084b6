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
  init_perf();
}

MonitorNetwork::MonitorNetwork(MonitorSubstrate& substrate) : sub_(substrate) {
  init_perf();
}

void MonitorNetwork::init_perf() {
  if (obs::perf::ProfileRegistry* perf = sub_.engine().perf();
      perf != nullptr) {
    perf_samples_ = perf->counter("monitor.reports_aggregated");
    perf_messages_ = perf->counter("monitor.messages");
    perf_retries_ = perf->counter("monitor.retries");
    perf_failovers_ = perf->counter("monitor.lead_failovers");
    perf_crashes_ = perf->counter("monitor.crashes");
    perf_lost_ = perf->counter("monitor.partials_lost");
  }
}

void MonitorNetwork::init_tree_perf() {
  // Registered only once a tree is armed: interning a counter makes it
  // appear (zero-valued) in every snapshot, and the star-mode metrics
  // document must stay byte-identical to the pre-tree format.
  if (obs::perf::ProfileRegistry* perf = sub_.engine().perf();
      perf != nullptr) {
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

int MonitorNetwork::count_active_nodes(const std::vector<simmpi::Rank>& set) {
  const auto nnodes = static_cast<std::size_t>(sub_.nnodes());
  if (node_mark_.size() != nnodes) node_mark_.assign(nnodes, false);
  active_nodes_.clear();
  for (const auto rank : set) {
    const auto node = static_cast<std::size_t>(sub_.node_of(rank));
    if (!node_mark_.test(node)) {
      node_mark_.set(node);
      active_nodes_.push_back(static_cast<int>(node));
    }
  }
  for (const int node : active_nodes_) {
    node_mark_.reset(static_cast<std::size_t>(node));
  }
  return static_cast<int>(active_nodes_.size());
}

void MonitorNetwork::group_set_by_node(const std::vector<simmpi::Rank>& set) {
  const auto nnodes = static_cast<std::size_t>(sub_.nnodes());
  if (node_mark_.size() != nnodes) node_mark_.assign(nnodes, false);
  if (node_count_.size() != nnodes) node_count_.assign(nnodes, 0);
  if (node_slot_.size() != nnodes) node_slot_.assign(nnodes, 0);
  active_nodes_.clear();
  for (const auto rank : set) {
    const auto node = static_cast<std::size_t>(sub_.node_of(rank));
    if (!node_mark_.test(node)) {
      node_mark_.set(node);
      active_nodes_.push_back(static_cast<int>(node));
    }
    ++node_count_[node];
  }
  std::sort(active_nodes_.begin(), active_nodes_.end());
  group_offset_.resize(active_nodes_.size() + 1);
  group_cursor_.resize(active_nodes_.size());
  group_offset_[0] = 0;
  for (std::size_t i = 0; i < active_nodes_.size(); ++i) {
    const auto node = static_cast<std::size_t>(active_nodes_[i]);
    node_slot_[node] = static_cast<int>(i);
    group_offset_[i + 1] = group_offset_[i] + node_count_[node];
    group_cursor_[i] = group_offset_[i];
  }
  grouped_.resize(set.size());
  for (const auto rank : set) {
    const auto slot = static_cast<std::size_t>(
        node_slot_[static_cast<std::size_t>(sub_.node_of(rank))]);
    grouped_[static_cast<std::size_t>(group_cursor_[slot]++)] = rank;
  }
  // Leave only active_nodes_/group_offset_/grouped_ populated: the mark and
  // the per-node counts go back to zero so the scratch is clean next sample.
  for (const int node : active_nodes_) {
    node_mark_.reset(static_cast<std::size_t>(node));
    node_count_[static_cast<std::size_t>(node)] = 0;
  }
}

void MonitorNetwork::collect_carriers(bool alive_only) {
  carriers_.clear();
  const auto nnodes = static_cast<std::size_t>(sub_.nnodes());
  if (fan_in_.size() != nnodes) fan_in_.assign(nnodes, 0);
  for (const int node : active_nodes_) {
    if (alive_only && !monitor_alive(node)) continue;
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
  // aggregation (and its RNG draws under a fault plan) proceeds in.
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
  // One local round even when everything sits on the root's node — the
  // star charges the same floor (bit_width(1) rounds).
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
  for (int receiver_level = levels - 1; receiver_level >= 0;
       --receiver_level) {
    const int fan = std::max(
        level_max_fan_in_[static_cast<std::size_t>(receiver_level)], 1);
    sim::Time gather =
        static_cast<sim::Time>(std::bit_width(static_cast<unsigned>(fan))) *
        sub_.network_latency();
    // A per-level deadline bounds how long any one gather step may take:
    // a straggling wide level forwards what arrived in time instead of
    // stalling the sample. Latency-only — partial counts still aggregate
    // in full (the model treats the overage as pipelined into the next
    // level), so S_crout is unchanged; only the latency model tightens.
    if (level_deadline_ > 0 && gather > level_deadline_) {
      gather = level_deadline_;
      ++deadline_hits_;
    }
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
  if (!plan_) return true;
  return node >= 0 && node < static_cast<int>(dead_.size()) &&
         !dead_.test(static_cast<std::size_t>(node));
}

void MonitorNetwork::set_topology(const TopologyConfig& config) {
  if (!config.tree()) return;  // fanout <= 0 ("infinite"): flat-star compat
  PS_CHECK(samples_ == 0,
           "set_topology must be called before the first sample");
  PS_CHECK(!plan_.has_value(),
           "set_topology must be called before set_tool_faults");
  topology_.build(sub_.nnodes(), config);
  level_deadline_ = config.level_deadline;
  lead_ = topology_.root();
  init_tree_perf();
}

void MonitorNetwork::set_tool_faults(const faults::ToolFaultPlan& plan) {
  if (!plan.active()) return;  // inactive plan: keep the zero-cost path
  PS_CHECK(samples_ == 0,
           "set_tool_faults must be called before the first sample");
  plan_ = plan;
  tool_rng_ = util::Rng(plan.seed);
  dead_.assign(static_cast<std::size_t>(sub_.nnodes()), false);
  // Resolve random victims now, in plan order, so the crash pattern is a
  // pure function of the plan seed (not of sampling timing). The current
  // root is never a random victim (lead_crash_at targets it explicitly);
  // for the star that is monitor 0, for a tree whatever the placement put
  // at the root.
  crash_schedule_.clear();
  std::vector<int> candidates;  // non-root monitors still unassigned
  for (int node = 0; node < sub_.nnodes(); ++node) {
    if (node != lead_) candidates.push_back(node);
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
  if (node < 0 || !monitor_alive(node)) return;  // already dead: no-op
  dead_.set(static_cast<std::size_t>(node));
  ++crashes_;
  PS_PERF_ADD(perf_crashes_, 1);
  const bool was_lead = node == lead_;
  const int alive = sub_.nnodes() - static_cast<int>(dead_.count());
  if (obs::TelemetrySink* sink = sub_.engine().telemetry(); sink != nullptr) {
    obs::MonitorCrashEvent event;
    event.time = at;
    event.monitor = node;
    event.was_lead = was_lead;
    event.alive = alive;
    sink->on_event(event);
  }

  if (topology_.built()) {
    // Tree mode: drop the node out of the topology. A dead root fails over
    // to its promoted child (the generalization of lead failover); a dead
    // interior monitor promotes its lowest surviving child, which adopts
    // the siblings — either way the subtree re-registers, charged to the
    // next sample.
    const auto removal = topology_.remove(node);
    if (removal.root_changed) {
      const int old_lead = lead_;
      lead_ = removal.new_root;
      ++failovers_;
      PS_PERF_ADD(perf_failovers_, 1);
      pending_reregistration_ += plan_->reregistration_latency;
      if (obs::TelemetrySink* sink = sub_.engine().telemetry();
          sink != nullptr) {
        obs::LeadFailoverEvent event;
        event.time = at;
        event.from = old_lead;
        event.to = lead_;
        event.reregistration_latency = plan_->reregistration_latency;
        sink->on_event(event);
      }
    } else if (removal.promoted >= 0) {
      ++subtree_failovers_;
      PS_PERF_ADD(perf_subtree_failovers_, 1);
      pending_reregistration_ += plan_->reregistration_latency;
      if (obs::TelemetrySink* sink = sub_.engine().telemetry();
          sink != nullptr) {
        obs::TreeFailoverEvent event;
        event.time = at;
        event.failed = node;
        event.promoted = removal.promoted;
        event.parent = topology_.parent(removal.promoted);
        event.adopted = removal.adopted;
        event.reregistration_latency = plan_->reregistration_latency;
        sink->on_event(event);
      }
    }
    return;
  }

  if (!was_lead) return;
  // Star: deterministic failover to the lowest surviving monitor id; every
  // survivor re-registers with it (charged to the next sample).
  const int old_lead = lead_;
  lead_ = -1;
  for (int candidate = 0; candidate < sub_.nnodes(); ++candidate) {
    if (monitor_alive(candidate)) {
      lead_ = candidate;
      break;
    }
  }
  ++failovers_;
  PS_PERF_ADD(perf_failovers_, 1);
  pending_reregistration_ += plan_->reregistration_latency;
  if (obs::TelemetrySink* sink = sub_.engine().telemetry(); sink != nullptr) {
    obs::LeadFailoverEvent event;
    event.time = at;
    event.from = old_lead;
    event.to = lead_;
    event.reregistration_latency = plan_->reregistration_latency;
    sink->on_event(event);
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
  if (!lead_crash_applied_ && plan_->lead_crash_at.has_value() &&
      *plan_->lead_crash_at <= now) {
    lead_crash_applied_ = true;
    crash_monitor(lead_, now);
  }
}

MonitorNetwork::Measurement MonitorNetwork::measure(
    const std::vector<simmpi::Rank>& set) {
  PS_CHECK(!set.empty(), "cannot measure an empty monitor set");
  if (topology_.built()) {
    return plan_ ? measure_tree_under_faults(set) : measure_tree_healthy(set);
  }
  if (!plan_) return measure_healthy(set);
  return measure_under_faults(set);
}

MonitorNetwork::Measurement MonitorNetwork::measure_healthy(
    const std::vector<simmpi::Rank>& set) {
  Measurement measurement;
  int out = 0;
  for (const auto rank : set) {
    if (sub_.trace_out_mpi(rank)) ++out;
    ++measurement.ranks_traced;
  }
  measurement.scrout =
      static_cast<double>(out) / static_cast<double>(set.size());
  measurement.active_monitors = count_active_nodes(set);

  // Each active monitor (except the lead) sends one 8-byte partial count;
  // a binomial-tree gather bounds the latency.
  const auto partials =
      static_cast<std::uint64_t>(std::max(measurement.active_monitors - 1, 0));
  messages_ += partials;
  bytes_ += partials * 8;
  PS_PERF_ADD(perf_messages_, partials);
  const int depth = std::bit_width(
      static_cast<unsigned>(std::max(measurement.active_monitors - 1, 1)));
  measurement.aggregation_latency =
      static_cast<sim::Time>(depth) * sub_.network_latency();
  measurement.levels = depth;
  measurement.root_fan_in = static_cast<int>(partials);
  root_messages_ += partials;
  PS_PERF_ADD(perf_root_messages_, partials);
  max_fan_in_ = std::max(max_fan_in_, measurement.root_fan_in);
  PS_PERF_OBSERVE(perf_fan_in_, partials);
  traced_ += static_cast<std::uint64_t>(measurement.ranks_traced);
  ++samples_;
  PS_PERF_ADD(perf_samples_, 1);
  emit_sample_event(measurement, partials, partials * 8);
  return measurement;
}

MonitorNetwork::Measurement MonitorNetwork::measure_under_faults(
    const std::vector<simmpi::Rank>& set) {
  const sim::Time now = sub_.engine().now();
  advance_tool_state(now);

  Measurement measurement;
  measurement.coverage = 0.0;

  // Group the set by hosting node, in ascending node order (the order the
  // lead polls partials in — also the RNG draw order, so the loss pattern
  // is a pure function of the plan seed and the sample sequence).
  group_set_by_node(set);
  measurement.active_monitors = static_cast<int>(active_nodes_.size());

  std::uint64_t sample_messages = 0;
  sim::Time worst_penalty = 0;
  int covered = 0;
  int out_covered = 0;
  int alive_active = 0;
  int senders = 0;

  if (lead_ < 0) {
    // Every monitor is dead: nobody traces, nothing is aggregated.
    measurement.partials_missing = measurement.active_monitors;
    measurement.degraded = true;
  } else {
    for (std::size_t slot = 0; slot < active_nodes_.size(); ++slot) {
      const int node = active_nodes_[slot];
      if (!monitor_alive(node)) {
        ++measurement.partials_missing;  // this monitor's partial never comes
        continue;
      }
      ++alive_active;
      // The local monitor traces its targets (ptrace cost is charged even
      // when the resulting count is later lost in flight).
      int node_out = 0;
      const int begin = group_offset_[slot];
      const int end = group_offset_[slot + 1];
      for (int i = begin; i < end; ++i) {
        if (sub_.trace_out_mpi(grouped_[static_cast<std::size_t>(i)])) {
          ++node_out;
        }
        ++measurement.ranks_traced;
      }
      const int node_ranks = end - begin;
      if (node == lead_) {
        // The lead counts its own ranks locally; no message involved.
        covered += node_ranks;
        out_covered += node_out;
        continue;
      }
      // One 8-byte partial count to the lead; lost messages are re-requested
      // after `sample_timeout` with exponentially growing backoff.
      ++senders;
      ++sample_messages;
      bool delivered = !tool_rng_.bernoulli(plan_->loss_probability);
      int attempts_retried = 0;
      sim::Time penalty = 0;
      while (!delivered && attempts_retried < plan_->max_retries) {
        ++attempts_retried;
        ++sample_messages;
        penalty += plan_->sample_timeout +
                   (plan_->retry_backoff << (attempts_retried - 1));
        delivered = !tool_rng_.bernoulli(plan_->loss_probability);
      }
      if (delivered && plan_->delay_mean > 0) {
        penalty += static_cast<sim::Time>(
            tool_rng_.exponential(static_cast<double>(plan_->delay_mean)));
      }
      if (!delivered) {
        penalty += plan_->sample_timeout;  // the lead's final wait
        ++measurement.partials_missing;
        ++lost_;
        PS_PERF_ADD(perf_lost_, 1);
      } else {
        covered += node_ranks;
        out_covered += node_out;
      }
      measurement.retries += attempts_retried;
      retries_total_ += static_cast<std::uint64_t>(attempts_retried);
      PS_PERF_ADD(perf_retries_,
                  static_cast<std::uint64_t>(attempts_retried));
      worst_penalty = std::max(worst_penalty, penalty);
      if (attempts_retried > 0) {
        if (obs::TelemetrySink* sink = sub_.engine().telemetry();
            sink != nullptr) {
          obs::SampleTimeoutEvent event;
          event.time = now;
          event.monitor = node;
          event.retries = attempts_retried;
          event.recovered = delivered;
          sink->on_event(event);
        }
      }
    }
    measurement.coverage =
        static_cast<double>(covered) / static_cast<double>(set.size());
    measurement.degraded = covered == 0;
  }

  measurement.scrout =
      covered > 0 ? static_cast<double>(out_covered) /
                        static_cast<double>(covered)
                  : 0.0;
  const int depth = std::bit_width(
      static_cast<unsigned>(std::max(alive_active - 1, 1)));
  measurement.aggregation_latency =
      static_cast<sim::Time>(depth) * sub_.network_latency() +
      worst_penalty + pending_reregistration_;
  pending_reregistration_ = 0;
  measurement.levels = depth;
  measurement.root_fan_in = senders;
  root_messages_ += sample_messages;
  PS_PERF_ADD(perf_root_messages_, sample_messages);
  max_fan_in_ = std::max(max_fan_in_, senders);
  PS_PERF_OBSERVE(perf_fan_in_, static_cast<std::uint64_t>(senders));

  messages_ += sample_messages;
  bytes_ += sample_messages * 8;
  traced_ += static_cast<std::uint64_t>(measurement.ranks_traced);
  ++samples_;
  PS_PERF_ADD(perf_messages_, sample_messages);
  PS_PERF_ADD(perf_samples_, 1);
  emit_sample_event(measurement, sample_messages, sample_messages * 8);
  return measurement;
}

MonitorNetwork::Measurement MonitorNetwork::measure_tree_healthy(
    const std::vector<simmpi::Rank>& set) {
  Measurement measurement;
  // Trace in set order — the same inspector draw order as the star path,
  // which is what makes tree-vs-star (faults off) a byte-exact oracle.
  int out = 0;
  for (const auto rank : set) {
    if (sub_.trace_out_mpi(rank)) ++out;
    ++measurement.ranks_traced;
  }
  measurement.scrout =
      static_cast<double>(out) / static_cast<double>(set.size());

  group_set_by_node(set);
  measurement.active_monitors = static_cast<int>(active_nodes_.size());
  collect_carriers(/*alive_only=*/false);

  // Every carrier except the root forwards one 8-byte aggregated partial
  // to its parent — one hop per carrier, fan-in bounded by the topology.
  const auto hops = static_cast<std::uint64_t>(carriers_.size() - 1);
  const int root = topology_.root();
  measurement.root_fan_in = fan_in_[static_cast<std::size_t>(root)];
  measurement.levels = topology_.level(carriers_.front());
  measurement.aggregation_latency =
      tree_gather_latency(measurement.levels, sub_.engine().now());

  messages_ += hops;
  bytes_ += hops * 8;
  tree_hops_ += hops;
  root_messages_ += static_cast<std::uint64_t>(measurement.root_fan_in);
  PS_PERF_ADD(perf_messages_, hops);
  PS_PERF_ADD(perf_tree_hops_, hops);
  PS_PERF_ADD(perf_root_messages_,
              static_cast<std::uint64_t>(measurement.root_fan_in));
  traced_ += static_cast<std::uint64_t>(measurement.ranks_traced);
  ++samples_;
  PS_PERF_ADD(perf_samples_, 1);
  emit_sample_event(measurement, hops, hops * 8);

  for (const int c : carriers_) {
    node_mark_.reset(static_cast<std::size_t>(c));
    fan_in_[static_cast<std::size_t>(c)] = 0;
  }
  return measurement;
}

MonitorNetwork::Measurement MonitorNetwork::measure_tree_under_faults(
    const std::vector<simmpi::Rank>& set) {
  const sim::Time now = sub_.engine().now();
  advance_tool_state(now);

  Measurement measurement;
  measurement.coverage = 0.0;
  group_set_by_node(set);
  measurement.active_monitors = static_cast<int>(active_nodes_.size());

  const auto nnodes = static_cast<std::size_t>(sub_.nnodes());
  if (agg_monitors_.size() != nnodes) {
    agg_monitors_.assign(nnodes, 0);
    agg_covered_.assign(nnodes, 0);
    agg_out_.assign(nnodes, 0);
    agg_penalty_.assign(nnodes, 0);
  }

  std::uint64_t sample_messages = 0;
  int covered = 0;
  int out_covered = 0;
  int root_fan_in = 0;

  if (topology_.root() < 0) {
    // Every monitor is dead: nobody traces, nothing is aggregated.
    measurement.partials_missing = measurement.active_monitors;
    measurement.degraded = true;
    measurement.aggregation_latency =
        sub_.network_latency() + pending_reregistration_;
    pending_reregistration_ = 0;
  } else {
    // Local tracing first, per active node in ascending order (the
    // inspector stream is independent of the hop draws below).
    for (std::size_t slot = 0; slot < active_nodes_.size(); ++slot) {
      const int node = active_nodes_[slot];
      if (!monitor_alive(node)) {
        ++measurement.partials_missing;  // this monitor's partial never comes
        continue;
      }
      int node_out = 0;
      const int begin = group_offset_[slot];
      const int end = group_offset_[slot + 1];
      for (int i = begin; i < end; ++i) {
        if (sub_.trace_out_mpi(grouped_[static_cast<std::size_t>(i)])) {
          ++node_out;
        }
        ++measurement.ranks_traced;
      }
      const auto idx = static_cast<std::size_t>(node);
      agg_monitors_[idx] = 1;
      agg_covered_[idx] = end - begin;
      agg_out_[idx] = node_out;
    }

    collect_carriers(/*alive_only=*/true);
    if (carriers_.empty()) {
      // Every active monitor is dead (the tool root survives elsewhere):
      // the sample is blind but the root still waited one round.
      measurement.degraded = true;
      measurement.aggregation_latency =
          sub_.network_latency() + pending_reregistration_;
      pending_reregistration_ = 0;
    } else {
      // Hop the aggregated partials level by level toward the root —
      // deepest carriers first, ascending node id within a level; one
      // loss/retry/delay draw sequence per hop, so a lost hop drops the
      // WHOLE subtree partial it was carrying.
      for (const int c : carriers_) {
        const int parent = topology_.parent(c);
        if (parent < 0) continue;  // the root does not hop
        const auto cidx = static_cast<std::size_t>(c);
        const auto pidx = static_cast<std::size_t>(parent);
        ++sample_messages;
        bool delivered = !tool_rng_.bernoulli(plan_->loss_probability);
        int attempts_retried = 0;
        sim::Time hop_penalty = 0;
        while (!delivered && attempts_retried < plan_->max_retries) {
          ++attempts_retried;
          ++sample_messages;
          hop_penalty += plan_->sample_timeout +
                         (plan_->retry_backoff << (attempts_retried - 1));
          delivered = !tool_rng_.bernoulli(plan_->loss_probability);
        }
        if (delivered && plan_->delay_mean > 0) {
          hop_penalty += static_cast<sim::Time>(
              tool_rng_.exponential(static_cast<double>(plan_->delay_mean)));
        }
        if (!delivered) {
          hop_penalty += plan_->sample_timeout;  // the parent's final wait
          const auto dropped =
              static_cast<std::uint64_t>(agg_monitors_[cidx]);
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
        PS_PERF_ADD(perf_retries_,
                    static_cast<std::uint64_t>(attempts_retried));
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

      const int root = topology_.root();
      const auto ridx = static_cast<std::size_t>(root);
      covered = agg_covered_[ridx];
      out_covered = agg_out_[ridx];
      root_fan_in = fan_in_[ridx];
      measurement.coverage =
          static_cast<double>(covered) / static_cast<double>(set.size());
      measurement.degraded = covered == 0;
      measurement.levels = topology_.level(carriers_.front());
      measurement.root_fan_in = root_fan_in;
      measurement.aggregation_latency =
          tree_gather_latency(measurement.levels, now) + agg_penalty_[ridx] +
          pending_reregistration_;
      pending_reregistration_ = 0;
    }
    for (const int c : carriers_) {
      const auto idx = static_cast<std::size_t>(c);
      node_mark_.reset(idx);
      fan_in_[idx] = 0;
      agg_monitors_[idx] = 0;
      agg_covered_[idx] = 0;
      agg_out_[idx] = 0;
      agg_penalty_[idx] = 0;
    }
  }

  measurement.scrout =
      covered > 0 ? static_cast<double>(out_covered) /
                        static_cast<double>(covered)
                  : 0.0;
  messages_ += sample_messages;
  bytes_ += sample_messages * 8;
  tree_hops_ += sample_messages;
  root_messages_ += static_cast<std::uint64_t>(root_fan_in);
  max_fan_in_ = std::max(max_fan_in_, root_fan_in);
  traced_ += static_cast<std::uint64_t>(measurement.ranks_traced);
  ++samples_;
  PS_PERF_ADD(perf_messages_, sample_messages);
  PS_PERF_ADD(perf_tree_hops_, sample_messages);
  PS_PERF_ADD(perf_root_messages_, static_cast<std::uint64_t>(root_fan_in));
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
  event.tree = topology_.built();
  event.levels = measurement.levels;
  event.root_fan_in = measurement.root_fan_in;
  event.partials_missing = measurement.partials_missing;
  event.retries = measurement.retries;
  event.coverage = measurement.coverage;
  event.degraded = measurement.degraded;
  sink->on_event(event);
}

}  // namespace parastack::core
