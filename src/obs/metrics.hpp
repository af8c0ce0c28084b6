#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/histogram.hpp"
#include "util/summary.hpp"

namespace parastack::obs {

/// Retained-sample distribution for low-volume latency data (detection
/// spans: a handful per run). Keeps every value so the JSON dump can report
/// exact p50/p95/p99 — fine at campaign scale, wrong for per-event streams
/// (use util::Histogram there).
class Digest {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

/// Named counters, gauges, streaming summaries, and fixed-bucket histograms
/// with deterministic JSON export (keys sorted — std::map — and values pure
/// functions of the seed). Accessors create on first use, so call sites
/// read like `registry.counter("detector.samples")++`.
class MetricsRegistry {
 public:
  std::uint64_t& counter(const std::string& name);
  double& gauge(const std::string& name);
  util::Summary& summary(const std::string& name);
  /// The (lo, hi, buckets) shape is fixed by whoever names the histogram
  /// first; later callers get the existing instance.
  util::Histogram& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets);
  Digest& digest(const std::string& name);

  bool has_counter(const std::string& name) const {
    return counters_.count(name) != 0;
  }

  /// One JSON document: {"counters":{...},"digests":{...},"gauges":{...},
  /// "summaries":{...},"histograms":{...}}. Keys sorted, doubles rendered
  /// with the fixed json_number format: byte-stable per seed.
  void write_json(std::ostream& out) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, util::Summary> summaries_;
  std::map<std::string, util::Histogram> histograms_;
  std::map<std::string, Digest> digests_;
};

/// TelemetrySink that folds the event stream into a MetricsRegistry:
/// sample/trace/traffic counters, streak-length and S_crout histograms,
/// aggregation-latency and interval distributions. The registry outlives
/// the sink; several runs (a campaign) may share one registry.
class MetricsSink final : public TelemetrySink {
 public:
  explicit MetricsSink(MetricsRegistry& registry);

  void on_event(const Event& event) override;

 private:
  MetricsRegistry& registry_;
};

}  // namespace parastack::obs
