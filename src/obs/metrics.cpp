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

namespace {

/// Folds each kind into the registry; kinds with no metric fall through to
/// the catch-all.
struct Fold {
  MetricsRegistry& registry;

  void operator()(const SampleEvent& e) const {
    ++registry.counter("detector.samples");
    if (e.suspicious) ++registry.counter("detector.suspicious_samples");
    if (e.model_frozen) ++registry.counter("detector.frozen_samples");
    registry.histogram("detector.scrout", 0.0, 1.0, 20).add(e.scrout);
    registry.summary("detector.interval_ms").add(sim::to_millis(e.interval));
    registry.gauge("detector.interval_ms") = sim::to_millis(e.interval);
    registry.gauge("detector.q") = e.q;
    registry.gauge("detector.required_streak") =
        static_cast<double>(e.required_streak);
  }

  void operator()(const RunsTestEvent& e) const {
    ++registry.counter("detector.runs_tests");
    if (e.random) ++registry.counter("detector.runs_tests_passed");
  }

  void operator()(const IntervalEvent&) const {
    ++registry.counter("detector.interval_doublings");
  }

  void operator()(const StreakEvent& e) const {
    // Record completed streak lengths: both resets (length reached before the
    // reset is in the event's reason path, so log the length at verify/reset
    // transitions only when it ends a streak).
    if (e.kind == StreakEvent::Kind::kReset ||
        e.kind == StreakEvent::Kind::kVerify) {
      registry.histogram("detector.streak_length", 0.0, 32.0, 32)
          .add(static_cast<double>(e.length));
    }
    if (e.kind == StreakEvent::Kind::kReset) {
      ++registry.counter("detector.streak_resets");
    }
    if (e.kind == StreakEvent::Kind::kVerify) {
      ++registry.counter("detector.verifications");
    }
  }

  void operator()(const FilterEvent& e) const {
    if (e.stage == FilterEvent::Stage::kRetry) {
      ++registry.counter("detector.filter_retries");
    }
  }

  void operator()(const SweepEvent& e) const {
    ++registry.counter("detector.sweeps");
    registry.counter("detector.ranks_swept") +=
        static_cast<std::uint64_t>(e.ranks);
  }

  void operator()(const HangEvent& e) const {
    ++registry.counter("detector.hangs");
    registry.counter("detector.faulty_ranks_reported") +=
        static_cast<std::uint64_t>(e.faulty_ranks.size());
  }

  void operator()(const SlowdownEvent&) const {
    ++registry.counter("detector.slowdowns_absorbed");
  }

  void operator()(const DetectionEvent& e) const {
    ++registry.counter("detector.detections");
    if (!e.detector.empty()) {
      ++registry.counter("detector." + std::string(e.detector) + ".detections");
    }
  }

  void operator()(const MonitorSampleEvent& e) const {
    ++registry.counter("monitor.samples");
    registry.counter("monitor.ranks_traced") +=
        static_cast<std::uint64_t>(e.ranks_traced);
    registry.counter("monitor.messages") += e.messages;
    registry.counter("monitor.bytes") += e.bytes;
    registry.summary("monitor.aggregation_latency_us")
        .add(static_cast<double>(e.aggregation_latency) / 1e3);
    registry.summary("monitor.active_monitors")
        .add(static_cast<double>(e.active_monitors));
    // Guarded so a healthy run's metrics document is byte-identical to the
    // pre-fault-model one (create-on-first-use keeps the keys absent).
    if (e.partials_missing > 0) {
      registry.counter("monitor.partials_missing") +=
          static_cast<std::uint64_t>(e.partials_missing);
    }
    if (e.retries > 0) {
      registry.counter("monitor.retries") +=
          static_cast<std::uint64_t>(e.retries);
    }
    if (e.coverage < 1.0) registry.summary("monitor.coverage").add(e.coverage);
    if (e.degraded) ++registry.counter("monitor.degraded_samples");
    registry.summary("monitor.tree_levels").add(static_cast<double>(e.levels));
    registry.summary("monitor.root_fan_in")
        .add(static_cast<double>(e.root_fan_in));
  }

  void operator()(const MonitorLevelEvent& e) const {
    ++registry.counter("monitor.level_gathers");
    registry.summary("monitor.level_latency_us")
        .add(static_cast<double>(e.latency) / 1e3);
    registry.summary("monitor.level_fan_in")
        .add(static_cast<double>(e.max_fan_in));
  }

  void operator()(const MonitorCrashEvent&) const {
    ++registry.counter("monitor.crashes");
  }

  void operator()(const LeadFailoverEvent&) const {
    ++registry.counter("monitor.lead_failovers");
  }

  void operator()(const TreeFailoverEvent& e) const {
    ++registry.counter("monitor.subtree_failovers");
    registry.counter("monitor.subtree_ranks_adopted") +=
        static_cast<std::uint64_t>(e.adopted);
  }

  void operator()(const SampleTimeoutEvent& e) const {
    ++registry.counter("monitor.sample_timeouts");
    if (!e.recovered) ++registry.counter("monitor.partials_lost");
  }

  void operator()(const DegradedModeEvent& e) const {
    if (e.entered) {
      ++registry.counter("detector.degraded_entries");
    } else {
      ++registry.counter("detector.degraded_exits");
    }
  }

  void operator()(const PhaseChangeEvent&) const {
    ++registry.counter("detector.phase_changes");
  }

  void operator()(const FaultEvent&) const {
    ++registry.counter("faults.activated");
  }

  void operator()(const RunStartEvent&) const {
    ++registry.counter("harness.runs");
  }

  void operator()(const RunEndEvent& e) const {
    if (e.completed) ++registry.counter("harness.runs_completed");
    if (e.killed) ++registry.counter("harness.runs_killed");
    registry.counter("trace.traces") += e.traces;
    registry.summary("harness.run_seconds").add(sim::to_seconds(e.end_time));
    registry.summary("trace.cost_seconds_per_run")
        .add(sim::to_seconds(e.trace_cost));
  }

  void operator()(const RecoveryEvent& e) const {
    ++registry.counter("recovery.events");
    if (e.action == "restore") ++registry.counter("recovery.restores");
    if (e.action == "give-up") ++registry.counter("recovery.give_ups");
    if (e.degraded) ++registry.counter("recovery.degraded_verdicts");
    registry.summary("recovery.overhead_seconds")
        .add(sim::to_seconds(e.overhead));
    registry.summary("recovery.rollback_seconds")
        .add(sim::to_seconds(e.time - e.resume_from));
  }

  void operator()(const DetectionSpanEvent& e) const {
    registry.digest("span." + std::string(e.span) + "_ms")
        .add(sim::to_millis(e.end - e.begin));
  }

  void operator()(const auto&) const {}
};

}  // namespace

void MetricsSink::on_event(const Event& event) {
  std::visit(Fold{registry_}, event);
}

}  // namespace parastack::obs
