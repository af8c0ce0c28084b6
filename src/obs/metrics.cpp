#include "obs/metrics.hpp"

#include "obs/json.hpp"
#include "sim/time.hpp"

namespace parastack::obs {

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

double& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

util::Summary& MetricsRegistry::summary(const std::string& name) {
  return summaries_[name];
}

util::Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t buckets) {
  return histograms_.try_emplace(name, lo, hi, buckets).first->second;
}

Digest& MetricsRegistry::digest(const std::string& name) {
  return digests_[name];
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::string doc;
  JsonObject root(doc);
  root.key("counters");
  {
    JsonObject counters(doc);
    for (const auto& [name, value] : counters_) counters.field(name, value);
  }
  root.key("digests");
  {
    JsonObject digests(doc);
    for (const auto& [name, d] : digests_) {
      digests.key(name);
      JsonObject obj(doc);
      obj.field("count", static_cast<std::uint64_t>(d.count()));
      if (d.empty()) continue;
      util::Summary moments;
      for (const double v : d.values()) moments.add(v);
      obj.field("mean", moments.mean())
          .field("min", moments.min())
          .field("max", moments.max())
          .field("p50", util::quantile(d.values(), 0.5))
          .field("p95", util::quantile(d.values(), 0.95))
          .field("p99", util::quantile(d.values(), 0.99));
    }
  }
  root.key("gauges");
  {
    JsonObject gauges(doc);
    for (const auto& [name, value] : gauges_) gauges.field(name, value);
  }
  root.key("summaries");
  {
    JsonObject summaries(doc);
    for (const auto& [name, s] : summaries_) {
      summaries.key(name);
      JsonObject obj(doc);
      obj.field("count", static_cast<std::uint64_t>(s.count()));
      if (s.empty()) continue;
      obj.field("mean", s.mean())
          .field("stddev", s.stddev())
          .field("min", s.min())
          .field("max", s.max());
    }
  }
  root.key("histograms");
  {
    JsonObject histograms(doc);
    for (const auto& [name, h] : histograms_) {
      histograms.key(name);
      JsonObject obj(doc);
      obj.field("lo", h.bucket_lo(0))
          .field("hi", h.bucket_hi(h.bucket_count() - 1))
          .field("total", static_cast<std::uint64_t>(h.total()))
          .field("underflow", static_cast<std::uint64_t>(h.underflow()))
          .field("overflow", static_cast<std::uint64_t>(h.overflow()))
          .key("buckets");
      doc += '[';
      for (std::size_t b = 0; b < h.bucket_count(); ++b) {
        if (b > 0) doc += ',';
        json_integer(doc, h.count(b));
      }
      doc += ']';
    }
  }
  root.done();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

MetricsSink::MetricsSink(MetricsRegistry& registry) : registry_(registry) {
  // Pre-register the distributions so their shapes do not depend on which
  // event arrives first.
  registry_.histogram("detector.streak_length", 0.0, 32.0, 32);
  registry_.histogram("detector.scrout", 0.0, 1.0, 20);
}

void MetricsSink::on_sample(const SampleEvent& e) {
  ++registry_.counter("detector.samples");
  if (e.suspicious) ++registry_.counter("detector.suspicious_samples");
  if (e.model_frozen) ++registry_.counter("detector.frozen_samples");
  registry_.histogram("detector.scrout", 0.0, 1.0, 20).add(e.scrout);
  registry_.summary("detector.interval_ms").add(sim::to_millis(e.interval));
  registry_.gauge("detector.interval_ms") = sim::to_millis(e.interval);
  registry_.gauge("detector.q") = e.q;
  registry_.gauge("detector.required_streak") =
      static_cast<double>(e.required_streak);
}

void MetricsSink::on_runs_test(const RunsTestEvent& e) {
  ++registry_.counter("detector.runs_tests");
  if (e.random) ++registry_.counter("detector.runs_tests_passed");
}

void MetricsSink::on_interval(const IntervalEvent&) {
  ++registry_.counter("detector.interval_doublings");
}

void MetricsSink::on_streak(const StreakEvent& e) {
  // Record completed streak lengths: both resets (length reached before the
  // reset is in the event's reason path, so log the length at verify/reset
  // transitions only when it ends a streak).
  if (e.kind == StreakEvent::Kind::kReset ||
      e.kind == StreakEvent::Kind::kVerify) {
    registry_.histogram("detector.streak_length", 0.0, 32.0, 32)
        .add(static_cast<double>(e.length));
  }
  if (e.kind == StreakEvent::Kind::kReset) {
    ++registry_.counter("detector.streak_resets");
  }
  if (e.kind == StreakEvent::Kind::kVerify) {
    ++registry_.counter("detector.verifications");
  }
}

void MetricsSink::on_filter(const FilterEvent& e) {
  if (e.stage == FilterEvent::Stage::kRetry) {
    ++registry_.counter("detector.filter_retries");
  }
}

void MetricsSink::on_sweep(const SweepEvent& e) {
  ++registry_.counter("detector.sweeps");
  registry_.counter("detector.ranks_swept") +=
      static_cast<std::uint64_t>(e.ranks);
}

void MetricsSink::on_hang(const HangEvent& e) {
  ++registry_.counter("detector.hangs");
  registry_.counter("detector.faulty_ranks_reported") +=
      static_cast<std::uint64_t>(e.faulty_ranks.size());
}

void MetricsSink::on_slowdown(const SlowdownEvent&) {
  ++registry_.counter("detector.slowdowns_absorbed");
}

void MetricsSink::on_detection(const DetectionEvent& e) {
  ++registry_.counter("detector.detections");
  if (!e.detector.empty()) {
    ++registry_.counter("detector." + std::string(e.detector) + ".detections");
  }
}

void MetricsSink::on_monitor_sample(const MonitorSampleEvent& e) {
  ++registry_.counter("monitor.samples");
  registry_.counter("monitor.ranks_traced") +=
      static_cast<std::uint64_t>(e.ranks_traced);
  registry_.counter("monitor.messages") += e.messages;
  registry_.counter("monitor.bytes") += e.bytes;
  registry_.summary("monitor.aggregation_latency_us")
      .add(static_cast<double>(e.aggregation_latency) / 1e3);
  registry_.summary("monitor.active_monitors")
      .add(static_cast<double>(e.active_monitors));
  // Guarded so a healthy run's metrics document is byte-identical to the
  // pre-fault-model one (create-on-first-use keeps the keys absent).
  if (e.partials_missing > 0) {
    registry_.counter("monitor.partials_missing") +=
        static_cast<std::uint64_t>(e.partials_missing);
  }
  if (e.retries > 0) {
    registry_.counter("monitor.retries") +=
        static_cast<std::uint64_t>(e.retries);
  }
  if (e.coverage < 1.0) registry_.summary("monitor.coverage").add(e.coverage);
  if (e.degraded) ++registry_.counter("monitor.degraded_samples");
  // Tree-mode keys appear only when a k-ary topology is armed: the metrics
  // document of a flat-star run stays byte-identical to the pre-tree one.
  if (e.tree) {
    registry_.summary("monitor.tree_levels")
        .add(static_cast<double>(e.levels));
    registry_.summary("monitor.root_fan_in")
        .add(static_cast<double>(e.root_fan_in));
  }
}

void MetricsSink::on_monitor_level(const MonitorLevelEvent& e) {
  ++registry_.counter("monitor.level_gathers");
  registry_.summary("monitor.level_latency_us")
      .add(static_cast<double>(e.latency) / 1e3);
  registry_.summary("monitor.level_fan_in")
      .add(static_cast<double>(e.max_fan_in));
}

void MetricsSink::on_monitor_crash(const MonitorCrashEvent&) {
  ++registry_.counter("monitor.crashes");
}

void MetricsSink::on_lead_failover(const LeadFailoverEvent&) {
  ++registry_.counter("monitor.lead_failovers");
}

void MetricsSink::on_tree_failover(const TreeFailoverEvent& e) {
  ++registry_.counter("monitor.subtree_failovers");
  registry_.counter("monitor.subtree_ranks_adopted") +=
      static_cast<std::uint64_t>(e.adopted);
}

void MetricsSink::on_sample_timeout(const SampleTimeoutEvent& e) {
  ++registry_.counter("monitor.sample_timeouts");
  if (!e.recovered) ++registry_.counter("monitor.partials_lost");
}

void MetricsSink::on_degraded_mode(const DegradedModeEvent& e) {
  if (e.entered) {
    ++registry_.counter("detector.degraded_entries");
  } else {
    ++registry_.counter("detector.degraded_exits");
  }
}

void MetricsSink::on_phase_change(const PhaseChangeEvent&) {
  ++registry_.counter("detector.phase_changes");
}

void MetricsSink::on_fault(const FaultEvent&) {
  ++registry_.counter("faults.activated");
}

void MetricsSink::on_run_start(const RunStartEvent&) {
  ++registry_.counter("harness.runs");
}

void MetricsSink::on_run_end(const RunEndEvent& e) {
  if (e.completed) ++registry_.counter("harness.runs_completed");
  if (e.killed) ++registry_.counter("harness.runs_killed");
  registry_.counter("trace.traces") += e.traces;
  registry_.summary("harness.run_seconds").add(sim::to_seconds(e.end_time));
  registry_.summary("trace.cost_seconds_per_run")
      .add(sim::to_seconds(e.trace_cost));
}

void MetricsSink::on_recovery(const RecoveryEvent& e) {
  ++registry_.counter("recovery.events");
  if (e.action == "restore") ++registry_.counter("recovery.restores");
  if (e.action == "give-up") ++registry_.counter("recovery.give_ups");
  if (e.degraded) ++registry_.counter("recovery.degraded_verdicts");
  registry_.summary("recovery.overhead_seconds")
      .add(sim::to_seconds(e.overhead));
  registry_.summary("recovery.rollback_seconds")
      .add(sim::to_seconds(e.time - e.resume_from));
}

void MetricsSink::on_detection_span(const DetectionSpanEvent& e) {
  registry_.digest("span." + std::string(e.span) + "_ms")
      .add(sim::to_millis(e.end - e.begin));
}

}  // namespace parastack::obs
